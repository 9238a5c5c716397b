(* Shared measurement plumbing: a monotonic clock, order statistics,
   the span recorder of the traced run, and the result record every
   workload fills in. *)
open Mvl_core

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks; [q] in [0, 1] *)
let quantile q xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun s x -> s +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* --- spans -------------------------------------------------------------- *)

(* A span wraps one call into a layer's public function.  With tracing
   off it is a plain call.  With tracing on it records wall time and
   words allocated on the calling domain (Gc.counters is domain-local
   in OCaml 5, so work a layer hands to other domains is timed but its
   allocation is not counted).  Self time and self words exclude
   nested spans, so per-layer self times sum to the time spent inside
   spans. *)
module Span = struct
  let enabled = ref false

  type acc = {
    mutable self : float;
    mutable words : float;
  }

  type frame = { mutable child_t : float; mutable child_w : float }

  let table : (string, acc) Hashtbl.t = Hashtbl.create 32
  let stack : frame list ref = ref []

  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

  let acc name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { self = 0.0; words = 0.0 } in
        Hashtbl.replace table name a;
        a

  let reset () =
    Hashtbl.reset table;
    stack := []

  let span name f =
    if not !enabled then f ()
    else begin
      let fr = { child_t = 0.0; child_w = 0.0 } in
      stack := fr :: !stack;
      let w0 = words () in
      let t0 = now () in
      let finish () =
        let t1 = now () in
        let w1 = words () in
        stack := List.tl !stack;
        let dt = t1 -. t0 and dw = w1 -. w0 in
        let a = acc name in
        a.self <- a.self +. dt -. fr.child_t;
        a.words <- a.words +. dw -. fr.child_w;
        match !stack with
        | p :: _ ->
            p.child_t <- p.child_t +. dt;
            p.child_w <- p.child_w +. dw
        | [] -> ()
      in
      Fun.protect ~finally:finish f
    end

  let self_seconds name =
    match Hashtbl.find_opt table name with Some a -> a.self | None -> 0.0

  let self_mwords name =
    match Hashtbl.find_opt table name with
    | Some a -> a.words /. 1e6
    | None -> 0.0

  let total_self () = Hashtbl.fold (fun _ a s -> s +. a.self) table 0.0
end

(* --- results ------------------------------------------------------------ *)

(* [raw] is the wall-clock value of a metric reported rescaled to the
   reference host (see [Host]). *)
type metric = { name : string; value : float; unit : string; raw : float option }

type check = { check : string; detail : string }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks : check list;  (* newest first *)
  mutable metrics : metric list;  (* newest first *)
  mutable notes : (string * Telemetry.json) list;
}

(* One timed round: its host factor (see [Host]), its wall time (everything the
   round did, checks included) and its result. *)
type 'a round = { k : float; wall : float; x : 'a }

let create () =
  { attempted = 0; failed = 0; checks = []; metrics = []; notes = [] }

let metric ?raw r name unit value =
  r.metrics <- { name; value; unit; raw } :: r.metrics
let note r key json = r.notes <- (key, json) :: r.notes

(* One attempted operation whose output passed (or failed) its checks.
   The first 50 failures are kept verbatim in the record; passing
   operations are only counted, so a long run does not flood it. *)
let op r name ok detail =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.checks < 50 then
      r.checks <- { check = name; detail } :: r.checks
  end

let ok_frac r =
  if r.attempted = 0 then 0.0
  else float_of_int (r.attempted - r.failed) /. float_of_int r.attempted

(* VmHWM of a process, in MiB (Linux /proc) *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kib -> float_of_int kib /. 1024.0)
            else loop ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) loop

(* The layers' self times must cover the traced wall to within this
   share; a traced run outside it fails its attribution check. *)
let attribution_tolerance = 0.05

let unattributed r frac =
  metric r "unattributed_frac" "ratio" frac;
  op r "trace attribution"
    (Float.abs frac <= attribution_tolerance)
    (Printf.sprintf "unattributed_frac %.4f exceeds %.2f" frac
       attribution_tolerance)

(* The benchmark's own work inside a round (output checks, explicit
   collections) runs in spans under this prefix, so that it is
   attributed but never reported as a layer of the program. *)
let own name f = Span.span ("perfbench." ^ name) f

(* Per-layer metrics of a traced run, for every span named in
   [layers]: its share of the traced rounds' wall time (self time over
   wall) and the Mwords it allocated per round; then the share taken by
   the benchmark's own work inside the rounds, and the share no span
   covers.  Shares, not seconds: they cancel the host's speed, and a
   layer's shares plus the benchmark's own and the unattributed one sum
   to 1.  The round's absolute time is the end-to-end round_s. *)
let layer_metrics r traced layers =
  let rounds = List.length traced in
  let wall = List.fold_left (fun s rd -> s +. rd.wall) 0.0 traced in
  List.iter
    (fun layer ->
      metric r (layer ^ ".share") "ratio" (Span.self_seconds layer /. wall);
      metric r (layer ^ ".alloc_mwords") "Mwords"
        (Span.self_mwords layer /. float_of_int (max 1 rounds)))
    layers;
  let own_s =
    Hashtbl.fold
      (fun name a s ->
        if String.starts_with ~prefix:"perfbench." name then s +. a.Span.self
        else s)
      Span.table 0.0
  in
  metric r "perfbench.share" "ratio" (own_s /. wall);
  unattributed r ((wall -. Span.total_self ()) /. wall)

(* --- host speed ---------------------------------------------------------- *)

(* Besides short bursts (see [sum_of_lower_quartiles]), the host's
   speed drifts over minutes: whole runs come out up to 40% slower, and
   no statistic over a run's rounds removes that.  So twice before every
   round and every set-up, a run times a fixed calibration loop -- a
   sort, hash-table inserts and short-lived allocation, all OCaml
   standard library, so no change to this repository moves it -- and
   rescales that round's times to a host on which the loop takes
   [reference_s].  Over ten seeds on a 2-core host this cut the spread
   (IQR / median) of validate-large's time from 0.17 to 0.08, of
   construct-catalog's from 0.26 to 0.05 and of simulate's packet rate
   from 0.15 to 0.05.  The raw values stay in the full record. *)
module Host = struct
  let reference_s = 0.04
  let data = Array.init 100_000 (fun i -> ((i * 7919) + 13) land 0xfffff)
  let samples = ref []

  let sample () =
    let t0 = now () in
    let a = Array.copy data in
    Array.sort Int.compare a;
    let h = Hashtbl.create 1024 in
    for i = 0 to 30_000 do
      Hashtbl.replace h (a.(i) lxor i) i
    done;
    let l = ref [] in
    for i = 1 to 100_000 do
      l := (i, i) :: !l;
      if i land 0xfff = 0 then l := []
    done;
    ignore (Sys.opaque_identity (h, !l));
    let dt = now () -. t0 in
    samples := dt :: !samples;
    dt

  (* seconds measured now -> seconds on the reference host.  A full
     major collection first, untimed, so that the garbage and live heap
     the program left behind cannot slow the loop: a change that cuts
     the program's allocation would otherwise speed up the calibration
     too and hide part of its own gain. *)
  let factor () =
    Gc.full_major ();
    let a = sample () in
    let b = sample () in
    reference_s /. ((a +. b) /. 2.0)
end

(* A workload's set-up, [f 0] .. [f (n-1)], each timed after its own
   calibration.  Reports the median time as setup_s and returns the
   results. *)
let setup r n f =
  let runs =
    List.init n (fun i ->
        let k = Host.factor () in
        let x, secs = timed (fun () -> f i) in
        (x, secs, secs *. k))
  in
  metric r "setup_s" "s"
    ~raw:(median (List.map (fun (_, s, _) -> s) runs))
    (median (List.map (fun (_, _, s) -> s) runs));
  List.map (fun (x, _, _) -> x) runs

(* Run [round] repeatedly until [seconds] of wall time have passed
   (always at least [min_rounds]).  With [~trace], rounds alternate
   untraced and traced (spans record only in the latter), so both kinds
   see the same host conditions; the result is then
   [(untraced, traced)].  Without, it is [(all, [])]. *)
let repeat ~seconds ~min_rounds ~trace round =
  Span.reset ();
  let t0 = now () in
  let rec go plain traced n =
    if n >= min_rounds && now () -. t0 >= seconds then
      (List.rev plain, List.rev traced)
    else begin
      let on = trace && n mod 2 = 1 in
      let k = Host.factor () in
      Span.enabled := on;
      let x, wall =
        Fun.protect
          ~finally:(fun () -> Span.enabled := false)
          (fun () -> timed (fun () -> round n))
      in
      let rd = { k; wall; x } in
      if on then go plain (rd :: traced) (n + 1)
      else go (rd :: plain) traced (n + 1)
    end
  in
  go [] [] 0

(* The traced run's cost of tracing: median traced round over median
   untraced round, minus one. *)
let overhead r plain traced =
  let m l = median (List.map (fun rd -> rd.wall) l) in
  metric r "trace.overhead_frac" "ratio" ((m traced -. m plain) /. m plain)

(* For seconds at a time other tenants of the host slow the same loop
   by up to a half, and the slow share of a run varies from run to run.
   Interference only ever adds time, so a workload's time is the sum,
   over its operations, of each operation's lower-quartile time over
   the rounds: it stays with the unloaded time unless three rounds in
   four are slowed, where a median flips between the loaded and the
   unloaded time when the slow share crosses one half.  [times] gives a
   round's operation times; the result is the raw sum and the sum with
   every round rescaled by its host factor. *)
let sum_of_lower_quartiles times rounds =
  let sum scale =
    match rounds with
    | [] -> nan
    | first :: _ ->
        let total = ref 0.0 in
        Array.iteri
          (fun i _ ->
            total :=
              !total
              +. quantile 0.25
                   (List.map (fun rd -> scale rd.k *. (times rd.x).(i)) rounds))
          (times first.x);
        !total
  in
  (sum (fun _ -> 1.0), sum Fun.id)

(* The end-to-end round_s every workload reports: the sum of its
   operations' lower-quartile times, rescaled to the reference host. *)
let round_s r times rounds =
  let raw, rescaled = sum_of_lower_quartiles times rounds in
  metric r ~raw "round_s" "s" rescaled

let rounds_note r rounds =
  note r "round_walls_s"
    (Telemetry.List (List.map (fun rd -> Telemetry.Float rd.wall) rounds))
