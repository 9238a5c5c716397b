(* validate-large: spec string -> Registry.build -> layout_jobs ->
   strict Check.run -> Layout.metrics on hypercube:12 and hypercube:15
   at L=4.  The verifier takes most of the time; the two sizes expose
   how its throughput falls with segment count.  hypercube:16 would
   show the fall more sharply, but one round of it takes ~7 s: 20 s
   runs held two or three rounds and their time spread 15% over five
   seeds, where hypercube:15 gave seven to nine rounds and 11%.  One
   job: with two on a 2-core host, a round slowed by up to 35% whenever
   another tenant held one core, which the single-threaded host
   calibration (Common.Host) cannot see; ten runs then spread 0.22. *)
open Mvl_core
open Common

let layers = 4
let small = "hypercube:12"
let large = "hypercube:15"
let jobs = 1

type inst = { secs : float; check_s : float; segs : int; violations : int }

let dims spec = (Mvl.Registry.spec_exn spec).Mvl.Registry.ints.(0)

(* one timed pipeline; output checks run after the clock stops *)
let instance r spec =
  let t0 = now () in
  let parsed = Span.span "registry.parse" (fun () -> Mvl.Registry.parse spec) in
  let fam =
    Span.span "registry.build" (fun () ->
        Mvl.Registry.build (Result.get_ok parsed))
    |> Result.get_ok
  in
  let lay =
    Span.span "families.layout" (fun () ->
        fam.Mvl.Families.layout_jobs ~jobs ~layers)
  in
  let res, check_s =
    Span.span "check.run" (fun () ->
        timed (fun () -> Mvl.Check.run ~mode:Mvl.Check.Strict ~jobs lay))
  in
  let (_ : Mvl.Layout.metrics) =
    Span.span "layout.metrics" (fun () -> Mvl.Layout.metrics lay)
  in
  let secs = now () -. t0 in
  own "check" @@ fun () ->
  let n = dims spec in
  let edges = n * (1 lsl (n - 1)) in
  let g = Mvl.Layout.geom lay in
  let violations = List.length res.Mvl.Check.violations in
  let ok =
    violations = 0
    && (not res.Mvl.Check.truncated)
    && Mvl.Graph.m fam.Mvl.Families.graph = edges
    && g.Mvl.Geom.n_wires = edges
  in
  op r ("validate " ^ spec) ok
    (Printf.sprintf "violations=%d edges=%d wires=%d expected=%d" violations
       (Mvl.Graph.m fam.Mvl.Families.graph)
       g.Mvl.Geom.n_wires edges);
  { secs; check_s; segs = Mvl.Geom.n_segments g; violations }

(* The small instance with one wire given another wire's route (both
   chosen by the seed): overlapping paths and detached terminals that
   a sound verifier must report. *)
let planted ~seed =
  let fam = Mvl.Registry.build_exn (Mvl.Registry.spec_exn small) in
  let lay = fam.Mvl.Families.layout ~layers in
  let wires = Array.copy (Mvl.Layout.wires lay) in
  let rng = Mvl.Rng.create ~seed in
  let victim = Mvl.Rng.int rng ~bound:(Array.length wires) in
  let donor =
    (victim + 1 + Mvl.Rng.int rng ~bound:(Array.length wires - 1))
    mod Array.length wires
  in
  wires.(victim) <- { (wires.(donor)) with Mvl.Wire.edge = wires.(victim).Mvl.Wire.edge };
  Mvl.Layout.make ~graph:(Mvl.Layout.graph lay) ~layers
    ~node_layers:(Mvl.Layout.node_layers lay) ~nodes:(Mvl.Layout.nodes lay)
    ~wires ()

let run r ~seed ~seconds ~trace =
  (* set-up: the planted-fault copy, built nine times *)
  let faulty = List.hd (setup r 9 (fun _ -> planted ~seed)) in
  let round _ =
    own "compact" Gc.compact;
    let a = instance r small in
    own "compact" Gc.compact;
    let b = instance r large in
    (a, b)
  in
  let plain, traced =
    repeat ~seconds ~min_rounds:(if trace then 4 else 2) ~trace round
  in
  let timed_rounds = if trace then traced else plain in
  let rounds = List.map (fun rd -> rd.x) timed_rounds in
  let caught =
    List.length (Mvl.Check.run ~mode:Mvl.Check.Strict ~jobs faulty).Mvl.Check.violations
  in
  op r "planted fault rejected" (caught > 0)
    (Printf.sprintf "violations=%d" caught);
  rounds_note r timed_rounds;
  if not trace then round_s r (fun (a, b) -> [| a.secs; b.secs |]) timed_rounds
  else begin
    layer_metrics r traced
      [
        "registry.parse";
        "registry.build";
        "families.layout";
        "check.run";
        "layout.metrics";
      ];
    let rate f = median (List.map f rounds) in
    let small_rate = rate (fun (a, _) -> float_of_int a.segs /. a.check_s /. 1e6) in
    let large_rate = rate (fun (_, b) -> float_of_int b.segs /. b.check_s /. 1e6) in
    metric r "check.mseg_per_s.small" "Mseg/s" small_rate;
    metric r "check.mseg_per_s.large" "Mseg/s" large_rate;
    metric r "check.scaling" "ratio" (large_rate /. small_rate);
    metric r "check.violations" "count"
      (float_of_int
         (List.fold_left (fun s (a, b) -> s + a.violations + b.violations) 0 rounds));
    metric r "check.planted_found" "count" (if caught > 0 then 1.0 else 0.0);
    metric r "families.mseg_per_s" "Mseg/s"
      (float_of_int (List.fold_left (fun s (a, b) -> s + a.segs + b.segs) 0 rounds)
      /. Span.self_seconds "families.layout" /. 1e6);
    overhead r plain traced
  end
