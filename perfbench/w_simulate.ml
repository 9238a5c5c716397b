(* simulate: the store-and-forward engine (Network_sim) on hypercube:10
   under uniform traffic at offered loads 0.1 and 0.3, and the flit
   engine (Wormhole) on hypercube:10 with e-cube routing and on a
   32x32 torus with adaptive routing, at low load, all with unit link
   latency and one job.  Every round repeats the same seeded inputs,
   so the modelled outputs must repeat exactly.  The flit runs drain
   for 2000 cycles instead of the default 20000: at these loads the
   network empties long before, and the shorter horizon buys more
   rounds per run. *)
open Mvl_core
open Common

let spec = "hypercube:10"
let dims = 10
let loads = [ 0.1; 0.3 ]
let torus = Mvl.Wormhole.Torus { k = 32; n = 2 }
let torus_routers = 32 * 32

let sim_config ~seed load =
  { Mvl.Network_sim.default_config with offered_load = load; seed }

let drain = 2000

let worm_configs ~seed =
  [
    ( Mvl.Wormhole.Hypercube dims,
      1 lsl dims,
      { Mvl.Wormhole.default_config with offered_load = 0.02; drain; seed } );
    ( torus,
      torus_routers,
      {
        Mvl.Wormhole.default_config with
        routing = Mvl.Wormhole.Adaptive;
        vcs = 3;
        offered_load = 0.01;
        drain;
        seed;
      } );
  ]

(* uniform traffic never targets the source: the mean distance over
   ordered pairs of distinct hypercube nodes *)
let mean_distance =
  float_of_int (dims * (1 lsl (dims - 1))) /. float_of_int ((1 lsl dims) - 1)

let graph () =
  Mvl.Registry.build_exn (Mvl.Registry.spec_exn spec) |> fun f ->
  f.Mvl.Families.graph

let build_tables rt g =
  for d = 0 to Mvl.Graph.n g - 1 do
    ignore (Mvl.Routing_table.build rt d : int array)
  done


type round = {
  sim : (float * Mvl.Network_sim.result) list;  (* per load *)
  worm : (float * int * Mvl.Wormhole.result) list;  (* secs, routers, result *)
}

let one_round ~seed g =
  let sim =
    List.map
      (fun load ->
        let res, secs =
          timed (fun () ->
              Span.span "network_sim.run" (fun () ->
                  Mvl.Network_sim.run ~config:(sim_config ~seed load) ~jobs:1 g))
        in
        (secs, res))
      loads
  in
  let worm =
    List.map
      (fun (fabric, routers, config) ->
        let res, secs =
          timed (fun () ->
              Span.span "wormhole.run" (fun () ->
                  Mvl.Wormhole.run ~config ~jobs:1 fabric))
        in
        (secs, routers, res))
      (worm_configs ~seed)
  in
  { sim; worm }

let check_round r ~first rd =
  List.iter2
    (fun load (_, (s : Mvl.Network_sim.result)) ->
      let conserved = s.injected = s.delivered + s.undrained in
      (* the closed form is the mean over all injected packets; it
         applies when every one of them was delivered *)
      let hops_ok =
        s.undrained > 0
        || Float.abs (s.avg_hops -. mean_distance) /. mean_distance < 0.01
      in
      let repeat =
        match first with
        | None -> true
        | Some f -> snd (List.assoc load (List.combine loads f.sim)) = s
      in
      op r (Printf.sprintf "network_sim load %.1f" load)
        (conserved && hops_ok && repeat)
        (Printf.sprintf
           "injected=%d delivered=%d undrained=%d avg_hops=%.4f \
            (closed form %.4f) repeat=%b"
           s.injected s.delivered s.undrained s.avg_hops mean_distance repeat))
    loads rd.sim;
  List.iteri
    (fun i (_, _, (w : Mvl.Wormhole.result)) ->
      let repeat =
        match first with
        | None -> true
        | Some f ->
            let _, _, w0 = List.nth f.worm i in
            w0 = w
      in
      op r (Printf.sprintf "wormhole fabric %d" i)
        (w.injected = w.delivered + w.undrained && repeat)
        (Printf.sprintf "injected=%d delivered=%d undrained=%d repeat=%b"
           w.injected w.delivered w.undrained repeat))
    rd.worm

let worm_cycles config =
  config.Mvl.Wormhole.warmup + config.measure + config.drain

let run r ~seed ~seconds ~trace =
  (* set-up: the graph.  Network_sim.run builds its own routing
     tables, inside the timed rounds. *)
  let g = List.hd (setup r 15 (fun _ -> graph ())) in
  let first = one_round ~seed g in
  check_round r ~first:None first;
  (* the sharded engine at two jobs must reproduce the serial stats *)
  let j2, t_j2 =
    timed (fun () ->
        Mvl.Network_sim.run ~config:(sim_config ~seed 0.1) ~jobs:2 g)
  in
  let j1 = List.hd first.sim in
  op r "network_sim jobs=2 equals jobs=1" (snd j1 = j2)
    (Printf.sprintf "delivered %d vs %d" (snd j1).delivered j2.delivered);
  let plain, traced =
    repeat ~seconds ~min_rounds:(if trace then 4 else 3) ~trace (fun _ ->
        let rd = one_round ~seed g in
        own "check" (fun () -> check_round r ~first:(Some first) rd);
        rd)
  in
  let timed_rounds = if trace then traced else plain in
  let s01 = snd (List.nth first.sim 0) and s03 = snd (List.nth first.sim 1) in
  rounds_note r timed_rounds;
  if not trace then
    round_s r
      (fun rd ->
        Array.of_list (List.map fst rd.sim @ List.map (fun (t, _, _) -> t) rd.worm))
      timed_rounds
  else begin
    (* Network_sim.run builds the tables inside its own call; time a
       build of all of them apart, three times *)
    let tables () =
      let rt = Mvl.Routing_table.create g in
      build_tables rt g;
      rt
    in
    let builds = List.init 3 (fun _ -> timed tables) in
    let rt = fst (List.hd builds) in
    layer_metrics r traced [ "network_sim.run"; "wormhole.run" ];
    (* simulated work per second of each engine's self time *)
    let per_s layer work =
      float_of_int (work * List.length traced) /. Span.self_seconds layer
    in
    metric r "network_sim.packets_per_s" "1/s"
      (per_s "network_sim.run" (s01.delivered + s03.delivered));
    metric r "wormhole.router_cycles_per_s" "1/s"
      (per_s "wormhole.run"
         (List.fold_left
            (fun s (_, routers, config) -> s + (routers * worm_cycles config))
            0 (worm_configs ~seed)));
    metric r "network_sim.accepted_ratio" "ratio" (s03.throughput /. 0.3);
    metric r "network_sim.p99_cycles" "cycles" (float_of_int s01.p99_latency);
    metric r "routing_table.tables_per_s" "1/s"
      (float_of_int (Mvl.Graph.n g) /. median (List.map snd builds));
    metric r "routing_table.load_imbalance" "ratio" (Imbalance.max_over_avg rt g);
    metric r "network_sim.delivered" "count"
      (float_of_int (s01.delivered + s03.delivered));
    metric r "network_sim.undrained" "count"
      (float_of_int (s01.undrained + s03.undrained));
    metric r "wormhole.cycles" "count"
      (float_of_int
         (List.fold_left (fun s (_, _, c) -> s + worm_cycles c) 0 (worm_configs ~seed)));
    metric r "sim_shard.speedup_j2" "ratio" (fst j1 /. t_j2);
    overhead r plain traced
  end
