open Mvl_core

let run_with ?(fabric = Mvl.Wormhole.Hypercube 6) ?(load = 0.01)
    ?(packet_len = 4) ?link_latency () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.offered_load = load; packet_len; warmup = 300;
      measure = 1500 }
  in
  Mvl.Wormhole.run ~config:cfg ?link_latency fabric

let test_low_load_delivers_all () =
  let r = run_with () in
  Alcotest.(check int) "hypercube all delivered" r.Mvl.Wormhole.injected
    r.Mvl.Wormhole.delivered;
  let rt = run_with ~fabric:(Mvl.Wormhole.Torus { k = 4; n = 2 }) () in
  Alcotest.(check int) "torus all delivered" rt.Mvl.Wormhole.injected
    rt.Mvl.Wormhole.delivered

let test_serialization_latency () =
  (* zero-load packet latency ~ hops + (packet_len - 1) + ejection *)
  let short = run_with ~load:0.001 ~packet_len:1 () in
  let long = run_with ~load:0.001 ~packet_len:8 () in
  Alcotest.(check bool) "longer packets, higher latency" true
    (long.Mvl.Wormhole.avg_latency
    > short.Mvl.Wormhole.avg_latency +. 5.0)

let test_contention_grows_latency () =
  let quiet = run_with ~load:0.002 () in
  let busy = run_with ~load:0.05 () in
  Alcotest.(check bool) "contention" true
    (busy.Mvl.Wormhole.avg_latency > quiet.Mvl.Wormhole.avg_latency)

let test_no_deadlock_under_stress () =
  (* past saturation the network must keep making progress (wormhole
     with e-cube + dateline VCs is deadlock-free) *)
  let r =
    run_with ~fabric:(Mvl.Wormhole.Torus { k = 4; n = 2 }) ~load:0.2 ()
  in
  Alcotest.(check bool) "progress under overload" true
    (r.Mvl.Wormhole.delivered > r.Mvl.Wormhole.injected / 2)

let test_torus_needs_two_vcs () =
  try
    let cfg = { Mvl.Wormhole.default_config with Mvl.Wormhole.vcs = 1 } in
    ignore (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }));
    Alcotest.fail "single-VC torus accepted"
  with Invalid_argument _ -> ()

(* fabrics the simulator cannot build: rejected up front by
   [Wormhole.run] itself rather than dying inside the graph constructor
   or the traffic draw with an unrelated message *)
let test_bad_fabrics_rejected () =
  List.iter
    (fun (name, fabric) ->
      match Mvl.Wormhole.run fabric with
      | _ -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s rejected by Wormhole.run (%s)" name msg)
            true
            (String.starts_with ~prefix:"Wormhole: " msg))
    [
      ("hypercube:0", Mvl.Wormhole.Hypercube 0);
      ("hypercube:-1", Mvl.Wormhole.Hypercube (-1));
      ("torus:1:2", Mvl.Wormhole.Torus { k = 1; n = 2 });
      ("torus:4:0", Mvl.Wormhole.Torus { k = 4; n = 0 });
    ]

let test_deterministic () =
  let a = run_with () and b = run_with () in
  Alcotest.(check bool) "reproducible" true (a = b)

let test_layout_latencies_matter () =
  let fam = Mvl.Families.hypercube 6 in
  let link layers =
    Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:16
      (fam.Mvl.Families.layout ~layers)
  in
  let slow = run_with ~link_latency:(link 2) () in
  let fast = run_with ~link_latency:(link 8) () in
  Alcotest.(check bool) "more layers, faster wormhole network" true
    (fast.Mvl.Wormhole.avg_latency < slow.Mvl.Wormhole.avg_latency)

let test_adaptive_delivers () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
      offered_load = 0.02; warmup = 200; measure = 1000 }
  in
  let r = Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }) in
  Alcotest.(check int) "adaptive torus delivers all" r.Mvl.Wormhole.injected
    r.Mvl.Wormhole.delivered;
  let rh =
    Mvl.Wormhole.run
      ~config:{ cfg with Mvl.Wormhole.vcs = 2 }
      (Mvl.Wormhole.Hypercube 5)
  in
  Alcotest.(check int) "adaptive hypercube delivers all"
    rh.Mvl.Wormhole.injected rh.Mvl.Wormhole.delivered

let test_adaptive_no_deadlock_under_stress () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
      traffic = Mvl.Traffic.Transpose; offered_load = 0.25; warmup = 200;
      measure = 800 }
  in
  let r = Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }) in
  Alcotest.(check bool) "keeps making progress" true
    (r.Mvl.Wormhole.delivered > r.Mvl.Wormhole.injected / 2)

let test_adaptive_vc_requirements () =
  (try
     let cfg =
       { Mvl.Wormhole.default_config with
         Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 2 }
     in
     ignore (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }));
     Alcotest.fail "2-VC adaptive torus accepted"
   with Invalid_argument _ -> ());
  try
    let cfg =
      { Mvl.Wormhole.default_config with
        Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 1 }
    in
    ignore (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Hypercube 4));
    Alcotest.fail "1-VC adaptive hypercube accepted"
  with Invalid_argument _ -> ()

(* fixed-seed golden statistics, the engine's reference: the first
   three were captured from the original list-based router before the
   zero-allocation rewrite and never re-pinned; the histogram hash pins
   every delivered packet's latency, so any change to VC arbitration
   order or candidate sorting shows up here.  Every golden runs at each
   of [golden_jobs]; 3 shards split 16 or 32 routers unevenly. *)
let golden_jobs = [ 1; 2; 3; 4 ]

let hash_hist pairs =
  Array.fold_left
    (fun h (lat, cnt) -> (((h * 1000003) + (lat * 8191) + cnt) land max_int))
    0 pairs

let check_golden name run ~jobs ~injected ~delivered ~p50 ~p95 ~p99 ~max
    ~hist_hash =
  List.iter
    (fun j ->
      let (r : Mvl.Wormhole.result) = run ~jobs:j in
      let name = Printf.sprintf "%s jobs=%d" name j in
      Alcotest.(check int) (name ^ " injected") injected r.Mvl.Wormhole.injected;
      Alcotest.(check int)
        (name ^ " delivered") delivered r.Mvl.Wormhole.delivered;
      Alcotest.(check int)
        (name ^ " undrained")
        (injected - delivered)
        r.Mvl.Wormhole.undrained;
      Alcotest.(check int) (name ^ " p50") p50 r.Mvl.Wormhole.p50_latency;
      Alcotest.(check int) (name ^ " p95") p95 r.Mvl.Wormhole.p95_latency;
      Alcotest.(check int) (name ^ " p99") p99 r.Mvl.Wormhole.p99_latency;
      Alcotest.(check int) (name ^ " max") max r.Mvl.Wormhole.max_latency;
      Alcotest.(check int)
        (name ^ " histogram hash") hist_hash
        (hash_hist r.Mvl.Wormhole.latency_histogram))
    jobs

let ecube_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.offered_load = 0.03; warmup = 100; measure = 400;
    drain = 2000; seed = 2 }

let test_golden_hypercube_ecube () =
  check_golden "wh hypercube/e-cube"
    (fun ~jobs -> Mvl.Wormhole.run ~config:ecube_cfg ~jobs (Mvl.Wormhole.Hypercube 5))
    ~jobs:golden_jobs ~injected:386 ~delivered:386 ~p50:6 ~p95:10 ~p99:11
    ~max:14 ~hist_hash:3420119115101005763

(* adaptive + datelines + 3 VCs: the candidate-scan ordering and the
   credit-sorted stable arbitration are all on this path *)
let adaptive_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
    traffic = Mvl.Traffic.Transpose; offered_load = 0.05; warmup = 100;
    measure = 400; drain = 2000; seed = 5 }

let test_golden_torus_adaptive () =
  check_golden "wh torus/adaptive"
    (fun ~jobs ->
      Mvl.Wormhole.run ~config:adaptive_cfg ~jobs
        (Mvl.Wormhole.Torus { k = 4; n = 2 }))
    ~jobs:golden_jobs ~injected:345 ~delivered:345 ~p50:5 ~p95:11 ~p99:16
    ~max:19 ~hist_hash:2103898282786443092

(* past saturation with a drain too short to empty the fabric: the
   horizon expires with worms still in flight, which must be reported
   as undrained rather than silently vanishing (they used to) *)
let undrained_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.offered_load = 0.2; warmup = 50; measure = 200; drain = 20;
    seed = 13 }

let test_golden_torus_undrained () =
  let run ~jobs =
    Mvl.Wormhole.run ~config:undrained_cfg ~jobs
      (Mvl.Wormhole.Torus { k = 4; n = 2 })
  in
  Alcotest.(check bool) "horizon leaves worms in flight" true
    ((run ~jobs:1).Mvl.Wormhole.undrained > 0);
  check_golden "wh torus/undrained" run ~jobs:golden_jobs ~injected:662
    ~delivered:524 ~p50:29 ~p95:67 ~p99:85 ~max:106
    ~hist_hash:1399783060572037098

(* non-unit link latencies: flits and credits land in wheel slots past
   [now + 1], on the same shard and across shards.  Captured from the
   standalone single-domain engine before it was folded into the
   sharded one. *)
let latency_link u v = 1 + ((u + v) mod 3)

let latency_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
    offered_load = 0.08; warmup = 100; measure = 400; drain = 2000;
    seed = 17 }

let test_golden_torus_link_latency () =
  check_golden "wh torus/link latency"
    (fun ~jobs ->
      Mvl.Wormhole.run ~config:latency_cfg ~link_latency:latency_link ~jobs
        (Mvl.Wormhole.Torus { k = 4; n = 2 }))
    ~jobs:golden_jobs ~injected:503 ~delivered:503 ~p50:9 ~p95:15 ~p99:18
    ~max:25 ~hist_hash:2779557968558367831

(* the sharding contract mirrors {!Network_sim}'s: full-record equality
   with the one-shard run at every jobs value, over deterministic
   e-cube, adaptive + datelines, an overloaded run with undrained worms
   and non-unit link latencies *)
let test_sharded_matches_one_shard () =
  let configs =
    [
      ("wh hypercube/e-cube", ecube_cfg, None, Mvl.Wormhole.Hypercube 5);
      ( "wh torus/adaptive",
        adaptive_cfg,
        None,
        Mvl.Wormhole.Torus { k = 4; n = 2 } );
      ( "wh torus/undrained",
        undrained_cfg,
        None,
        Mvl.Wormhole.Torus { k = 4; n = 2 } );
      ( "wh torus/link latency",
        latency_cfg,
        Some latency_link,
        Mvl.Wormhole.Torus { k = 4; n = 2 } );
    ]
  in
  List.iter
    (fun (name, config, link_latency, fabric) ->
      let one = Mvl.Wormhole.run ~config ?link_latency ~jobs:1 fabric in
      List.iter
        (fun jobs ->
          let sharded = Mvl.Wormhole.run ~config ?link_latency ~jobs fabric in
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs=%d equals jobs=1" name jobs)
            true (sharded = one))
        [ 2; 3; 4 ])
    configs

let test_graph_of_fabric () =
  Alcotest.(check bool) "hypercube fabric" true
    (Mvl.Graph.equal
       (Mvl.Wormhole.graph_of_fabric (Mvl.Wormhole.Hypercube 4))
       (Mvl.Hypercube.create 4));
  Alcotest.(check bool) "torus fabric" true
    (Mvl.Graph.equal
       (Mvl.Wormhole.graph_of_fabric (Mvl.Wormhole.Torus { k = 5; n = 2 }))
       (Mvl.Kary_ncube.create ~k:5 ~n:2))

let suite =
  [
    Alcotest.test_case "low load delivers all" `Quick test_low_load_delivers_all;
    Alcotest.test_case "serialization latency" `Quick test_serialization_latency;
    Alcotest.test_case "contention grows latency" `Quick
      test_contention_grows_latency;
    Alcotest.test_case "no deadlock under stress" `Slow
      test_no_deadlock_under_stress;
    Alcotest.test_case "torus needs 2 VCs" `Quick test_torus_needs_two_vcs;
    Alcotest.test_case "bad fabrics rejected" `Quick test_bad_fabrics_rejected;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "layout latencies matter" `Quick
      test_layout_latencies_matter;
    Alcotest.test_case "adaptive delivers" `Quick test_adaptive_delivers;
    Alcotest.test_case "adaptive stress" `Slow
      test_adaptive_no_deadlock_under_stress;
    Alcotest.test_case "adaptive vc requirements" `Quick
      test_adaptive_vc_requirements;
    Alcotest.test_case "golden: hypercube e-cube" `Quick
      test_golden_hypercube_ecube;
    Alcotest.test_case "golden: torus adaptive" `Quick
      test_golden_torus_adaptive;
    Alcotest.test_case "golden: torus undrained" `Quick
      test_golden_torus_undrained;
    Alcotest.test_case "golden: torus link latency" `Quick
      test_golden_torus_link_latency;
    Alcotest.test_case "sharded engine matches one shard" `Quick
      test_sharded_matches_one_shard;
    Alcotest.test_case "fabric graphs" `Quick test_graph_of_fabric;
  ]
