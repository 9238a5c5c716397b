(* serve-zipf: `mvl serve` in its own process on loopback TCP, driven
   closed-loop by this process.  Keys are drawn from a Zipf law over a
   catalog of (op, spec, L).  The daemon's reply cache holds the whole
   catalog, so after one cold pass every timed request is a reply-cache
   hit, and a round measures what a hit costs: the client encoding the
   line, the event loop reading it, Protocol.parse_request, the cache
   lookup, the reply envelope, the write and the client's read.  Every
   request carries a fresh id, so no two request lines are equal and
   the server's one-line parse memo cannot stand in for parsing.  What
   a miss costs is measured in-process (Protocol.eval) by the traced
   run.  An open loop whose misses recur was tried first and was too
   unsteady to gate on (README.md). *)
open Mvl_core
open Common
module P = Mvl_serve.Protocol
module C = Mvl_serve.Client

let nproc = max 1 (Domain.recommended_domain_count ())
let workers = max 1 (nproc - 1)
let connections = max 1 (min 2 nproc)

let specs =
  [
    "hypercube:6"; "hypercube:8"; "hypercube:10"; "kary:4:4"; "torus:16:16";
    "ccc:6"; "mesh:32:32"; "butterfly:4:2"; "debruijn:8"; "tree:10";
    "ghc:4:4"; "star:5";
  ]

(* Popularity rank is a fixed shuffle of the catalog (constant seed),
   so every benchmark seed sees the same keys at the same ranks; the
   benchmark seed drives only the key draws. *)
let catalog =
  let all =
    List.concat_map
      (fun spec ->
        List.concat_map
          (fun layers ->
            [
              P.Layout { spec; layers; validate = false };
              P.Metrics { spec; layers };
              P.Validate { spec; layers };
            ])
          [ 2; 4 ])
      specs
    |> Array.of_list
  in
  let rng = Mvl.Rng.create ~seed:20000 in
  for i = Array.length all - 1 downto 1 do
    let j = Mvl.Rng.int rng ~bound:(i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  all

let zipf_s = 1.0

(* A round: [chunks] chunks, each sending [window] pipelined requests
   on every connection and then reading all their replies; then
   [serial] single round trips on one connection. *)
let window = 64
let chunks = 384
let serial = 200
let per_chunk = window * connections
let per_round = (chunks * per_chunk) + serial

let op_kind = function
  | P.Layout _ -> "layout"
  | P.Metrics _ -> "metrics"
  | P.Validate _ -> "validate"
  | _ -> "other"

(* --- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; out : in_channel; addr : string }

let spawn mvl =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [|
      mvl; "serve"; "--tcp"; "127.0.0.1:0"; "--workers"; string_of_int workers;
      "--cache-entries"; string_of_int (2 * Array.length catalog);
      "--idle-timeout"; "0";
    |]
  in
  let pid = Unix.create_process mvl args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let line = input_line out in
  let addr =
    match String.rindex_opt line ' ' with
    | Some i -> String.sub line (i + 1) (String.length line - i - 1)
    | None -> failwith ("mvl serve: unexpected banner " ^ line)
  in
  { pid; out; addr }

let connect d =
  match C.connect d.addr with
  | Ok c -> c
  | Error e -> failwith ("connect " ^ d.addr ^ ": " ^ e)

let stop d =
  (match C.connect d.addr with
  | Ok c ->
      ignore (C.rpc c { P.id = -1; op = P.Shutdown });
      C.close c
  | Error _ -> ());
  (* a daemon that does not exit within ten seconds is killed *)
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  close_in_noerr d.out

(* boot to first reply *)
let boot mvl =
  let d = spawn mvl in
  let c = connect d in
  let stats = C.rpc c { P.id = 0; op = P.Stats } in
  C.close c;
  (match stats with Ok _ -> () | Error e -> failwith ("stats: " ^ e));
  d

let stats_of c =
  match C.rpc c { P.id = -2; op = P.Stats } with
  | Ok j -> j
  | Error e -> failwith ("stats: " ^ e)

let rec counter path j =
  match path with
  | [] -> ( match j with Telemetry.Int i -> float_of_int i | _ -> nan)
  | k :: rest -> (
      match Telemetry.member k j with Some v -> counter rest v | None -> nan)

(* --- replies ------------------------------------------------------------ *)

(* the id a reply echoes, read from its envelope without parsing the
   payload *)
let id_of_reply line =
  let pat = "\"id\":" in
  let n = String.length line and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let j = ref j in
      let neg = !j < n && line.[!j] = '-' in
      if neg then incr j;
      let v = ref 0 and digits = ref 0 in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        v := (!v * 10) + Char.code line.[!j] - 48;
        incr j;
        incr digits
      done;
      if !digits = 0 then None else Some (if neg then - !v else !v)

let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf rng =
  let u = Mvl.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- the closed loop ---------------------------------------------------- *)

type sample = {
  chunk_s : float array;  (* per chunk: encode, send, read every reply *)
  rtt_ms : float array;  (* per serial round trip *)
}

(* Checks a reply against the in-process Protocol.eval payload of the
   key its id was sent with; [seen] catches a duplicate reply. *)
let check_reply r ~expected ~keys ~base ~seen line =
  match line with
  | Error e -> op r "reply" false ("no reply: " ^ e)
  | Ok l -> (
      match id_of_reply l with
      | Some id when id >= base && id - base < Array.length keys ->
          let i = id - base in
          let ok =
            (not seen.(i))
            && String.equal l
                 (P.encode_reply_ok ~id ~payload:expected.(keys.(i)))
          in
          seen.(i) <- true;
          op r "reply" ok
            (if ok then "" else Printf.sprintf "reply to id %d differs" id)
      | _ -> op r "reply" false "reply echoes no id of this chunk")

let one_round r ~conns ~expected ~keys ~base =
  let nc = Array.length conns in
  let chunk_s =
    Array.init chunks (fun ch ->
        let b = base + (ch * per_chunk) in
        let ks = Array.sub keys (ch * per_chunk) per_chunk in
        let t0 = now () in
        let batches =
          Span.span "protocol.encode" (fun () ->
              Array.init nc (fun c ->
                  let buf = Buffer.create (window * 96) in
                  for i = c * window to ((c + 1) * window) - 1 do
                    Buffer.add_string buf
                      (P.encode_request { P.id = b + i; op = catalog.(ks.(i)) });
                    Buffer.add_char buf '\n'
                  done;
                  Buffer.contents buf))
        in
        Span.span "client.send" (fun () ->
            Array.iteri (fun c batch -> C.send_raw conns.(c) batch) batches);
        let replies =
          Span.span "client.recv" (fun () ->
              Array.init per_chunk (fun i -> C.recv_line conns.(i / window)))
        in
        let secs = now () -. t0 in
        own "check" (fun () ->
            let seen = Array.make per_chunk false in
            Array.iter (check_reply r ~expected ~keys:ks ~base:b ~seen) replies);
        secs)
  in
  let b = base + (chunks * per_chunk) in
  let rtt_ms =
    Array.init serial (fun i ->
        let key = keys.(i) in
        let t0 = now () in
        let line =
          let l =
            Span.span "protocol.encode" (fun () ->
                P.encode_request { P.id = b + i; op = catalog.(key) })
          in
          Span.span "client.send" (fun () -> C.send_line conns.(0) l);
          Span.span "client.recv" (fun () -> C.recv_line conns.(0))
        in
        let ms = (now () -. t0) *. 1000.0 in
        own "check" (fun () ->
            check_reply r ~expected ~keys:[| key |] ~base:(b + i)
              ~seen:[| false |] line);
        ms)
  in
  { chunk_s; rtt_ms }

(* --- the workload ------------------------------------------------------- *)

let run r ~seed ~seconds ~trace ~mvl =
  if mvl = "" then failwith "serve-zipf needs --mvl";
  (* reference payloads: in-process Protocol.eval of every key, on
     layouts built beforehand so each eval is what a reply-cache miss
     costs the daemon once its layout cache is warm *)
  Array.iter
    (fun op ->
      match op with
      | P.Layout { spec; layers; _ } | P.Metrics { spec; layers }
      | P.Validate { spec; layers } ->
          ignore (Mvl.Pipeline.layout_exn ~layers spec : Mvl.Layout.t)
      | _ -> ())
    catalog;
  let evals =
    Array.map
      (fun op ->
        let res, secs = timed (fun () -> P.eval op) in
        match res with
        | Ok payload -> (payload, secs)
        | Error e -> failwith ("Protocol.eval: " ^ e))
      catalog
  in
  let expected = Array.map fst evals in
  (* set-up: boot to first reply, fifteen times; the last daemon serves *)
  let boots = setup r 15 (fun _ -> boot mvl) in
  let d = List.nth boots 14 in
  List.iter (fun d' -> if d' != d then stop d') boots;
  let finally () = stop d in
  Fun.protect ~finally @@ fun () ->
  (* cold pass: every key once, serially; checks byte identity *)
  let c0 = connect d in
  let cold =
    Array.mapi
      (fun key o ->
        let id = 1_000_000 + key in
        let line, secs =
          timed (fun () ->
              C.send_line c0 (P.encode_request { P.id; op = o });
              C.recv_line c0)
        in
        let ok =
          match line with
          | Ok l -> String.equal l (P.encode_reply_ok ~id ~payload:expected.(key))
          | Error _ -> false
        in
        op r ("cold " ^ P.encode_request { P.id = 0; op = o }) ok
          "reply differs from Protocol.eval";
        secs *. 1000.0)
      catalog
  in
  let before = stats_of c0 in
  C.close c0;
  let conns = Array.init connections (fun _ -> connect d) in
  let rng = Mvl.Rng.create ~seed in
  let cdf = zipf_cdf (Array.length catalog) in
  let keys = Array.init per_round (fun _ -> draw cdf rng) in
  let plain, traced =
    repeat ~seconds ~min_rounds:(if trace then 4 else 3) ~trace (fun n ->
        one_round r ~conns ~expected ~keys ~base:(10_000_000 + (n * per_round)))
  in
  let after = stats_of conns.(0) in
  Array.iter C.close conns;
  let timed_rounds = if trace then traced else plain in
  rounds_note r timed_rounds;
  if not trace then begin
    round_s r (fun rd -> rd.chunk_s) timed_rounds;
    metric r "peak_rss_mib" "MiB" (peak_rss_mib (string_of_int d.pid))
  end
  else begin
    layer_metrics r traced [ "protocol.encode"; "client.send"; "client.recv" ];
    (* latencies as rates (1 / median seconds): the other workloads
       report these metrics as 0, which a rate can read and a time
       should not *)
    List.iter
      (fun kind ->
        let xs =
          Array.to_list evals
          |> List.mapi (fun i (_, s) -> (catalog.(i), s))
          |> List.filter_map (fun (op, s) ->
                 if op_kind op = kind then Some s else None)
        in
        metric r ("protocol.eval_per_s." ^ kind) "1/s" (1.0 /. median xs))
      [ "layout"; "metrics"; "validate" ];
    let codec =
      let n = 200 in
      let (), secs =
        timed (fun () ->
            for i = 1 to n do
              Array.iteri
                (fun k op ->
                  let line = P.encode_request { P.id = i; op } in
                  ignore (P.parse_request line);
                  ignore (P.parse_reply (P.encode_reply_ok ~id:i ~payload:expected.(k))))
                catalog
            done)
      in
      float_of_int (n * Array.length catalog) /. secs
    in
    metric r "protocol.codec_per_s" "1/s" codec;
    metric r "serve.cold_per_s" "1/s" (1000.0 /. median (Array.to_list cold));
    (* serial round trips are not gated: on two cores their median
       moved between 16 and 27 us from run to run, with where the
       scheduler put the daemon's event loop *)
    let rtts = List.concat_map (fun rd -> Array.to_list rd.x.rtt_ms) timed_rounds in
    metric r "serve.warm_per_s" "1/s" (1000.0 /. median rtts);
    let delta path = counter path after -. counter path before in
    let hits = delta [ "hits" ] and misses = delta [ "misses" ] in
    metric r "server.hit_ratio" "ratio" (hits /. (hits +. misses));
    metric r "reply_cache.evictions" "count" (delta [ "reply_cache"; "evictions" ]);
    overhead r plain traced
  end
