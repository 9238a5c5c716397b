(* Tornado and bursty ON/OFF traffic: spec-string round trips, the
   tornado bijection (which unlike the bit patterns must hold at every
   n, not just powers of two), the bursty injector's long-run rate
   against its analytic stationary distribution, and one-shard vs
   three-shard engine parity under bursty injection — the case that
   exercises the injector's fixed per-call draw order across replicated
   RNG streams. *)
open Mvl_core

let test_tornado_formula () =
  (* dst = (src + ceil(n/2) - 1) mod n *)
  List.iter
    (fun n ->
      let offset = ((n + 1) / 2) - 1 in
      for src = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "tornado n=%d src=%d" n src)
          ((src + offset) mod n)
          (Mvl.Traffic.permute Mvl.Traffic.Tornado ~n_nodes:n ~src)
      done)
    [ 4; 7; 8; 9; 16; 63 ]

let test_tornado_bijective () =
  (* a rotation is a bijection at every n — including odd n, where the
     bit-pattern permutations are not even defined *)
  List.iter
    (fun n ->
      let seen = Array.make n false in
      for src = 0 to n - 1 do
        let d = Mvl.Traffic.permute Mvl.Traffic.Tornado ~n_nodes:n ~src in
        Alcotest.(check bool)
          (Printf.sprintf "image in range n=%d" n)
          true
          (d >= 0 && d < n);
        Alcotest.(check bool)
          (Printf.sprintf "no collision n=%d src=%d" n src)
          false seen.(d);
        seen.(d) <- true
      done)
    [ 2; 3; 7; 8; 16; 33 ]

let test_spec_string_roundtrip () =
  List.iter
    (fun p ->
      match Mvl.Traffic.of_string (Mvl.Traffic.to_string p) with
      | Ok p' ->
          Alcotest.(check string)
            ("round trip " ^ Mvl.Traffic.to_string p)
            (Mvl.Traffic.to_string p)
            (Mvl.Traffic.to_string p');
          Alcotest.(check bool) "structurally equal" true (p = p')
      | Error m -> Alcotest.fail m)
    [
      Mvl.Traffic.Uniform;
      Mvl.Traffic.Transpose;
      Mvl.Traffic.Bit_reversal;
      Mvl.Traffic.Bit_complement;
      Mvl.Traffic.Tornado;
      Mvl.Traffic.Hotspot 5;
      Mvl.Traffic.Bursty
        { pattern = Mvl.Traffic.Uniform; burst = 16; duty_pct = 25 };
      (* the right-anchored parse: the inner pattern itself contains
         a ':' *)
      Mvl.Traffic.Bursty
        { pattern = Mvl.Traffic.Hotspot 3; burst = 8; duty_pct = 50 };
      Mvl.Traffic.Bursty
        { pattern = Mvl.Traffic.Tornado; burst = 1; duty_pct = 100 };
    ]

let test_of_string_rejects () =
  let bad s =
    match Mvl.Traffic.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown" true (bad "zigzag");
  Alcotest.(check bool) "hotspot arity" true (bad "hotspot");
  Alcotest.(check bool) "hotspot non-int" true (bad "hotspot:x");
  Alcotest.(check bool) "bursty arity" true (bad "bursty:uniform:16");
  Alcotest.(check bool) "bursty non-int burst" true (bad "bursty:uniform:x:25");
  Alcotest.(check bool) "nested bursty" true
    (bad "bursty:bursty:uniform:4:50:16:25")

let test_injector_validation () =
  let rng = Mvl.Rng.create ~seed:1 in
  let mk p =
    ignore (Mvl.Traffic.injector p ~offered_load:0.1 ~n_nodes:8 rng)
  in
  let raises p =
    match mk p with exception Invalid_argument _ -> true | () -> false
  in
  Alcotest.(check bool) "burst < 1" true
    (raises
       (Mvl.Traffic.Bursty
          { pattern = Mvl.Traffic.Uniform; burst = 0; duty_pct = 25 }));
  Alcotest.(check bool) "duty 0" true
    (raises
       (Mvl.Traffic.Bursty
          { pattern = Mvl.Traffic.Uniform; burst = 4; duty_pct = 0 }));
  Alcotest.(check bool) "duty 101" true
    (raises
       (Mvl.Traffic.Bursty
          { pattern = Mvl.Traffic.Uniform; burst = 4; duty_pct = 101 }))

(* empirical long-run injection rate over the whole node population;
   the stationary ON probability is duty, the ON rate load/duty, so
   the product is the offered load *)
let measured_rate pattern ~load ~cycles ~n_nodes =
  let rng = Mvl.Rng.create ~seed:7 in
  let inj =
    Mvl.Traffic.injector pattern ~offered_load:load ~n_nodes rng
  in
  let fired = ref 0 in
  for _ = 1 to cycles do
    for src = 0 to n_nodes - 1 do
      if Mvl.Traffic.inject inj rng ~src then incr fired
    done
  done;
  float_of_int !fired /. float_of_int (cycles * n_nodes)

let test_bursty_longrun_rate () =
  List.iter
    (fun (burst, duty_pct) ->
      let load = 0.2 in
      let pattern =
        Mvl.Traffic.Bursty { pattern = Mvl.Traffic.Uniform; burst; duty_pct }
      in
      let rate = measured_rate pattern ~load ~cycles:4000 ~n_nodes:64 in
      Alcotest.(check bool)
        (Printf.sprintf "rate ~ load at burst=%d duty=%d%% (got %.4f)" burst
           duty_pct rate)
        true
        (Float.abs (rate -. load) < 0.015))
    [ (4, 25); (16, 25); (8, 50); (32, 75) ]

let test_duty_100_is_steady () =
  (* duty 100% must degenerate to the steady Bernoulli process — the
     exact same draw stream, not merely the same long-run rate *)
  let fires pattern =
    let rng = Mvl.Rng.create ~seed:11 in
    let inj =
      Mvl.Traffic.injector pattern ~offered_load:0.3 ~n_nodes:16 rng
    in
    let out = ref [] in
    for _ = 1 to 200 do
      for src = 0 to 15 do
        out := Mvl.Traffic.inject inj rng ~src :: !out
      done
    done;
    !out
  in
  Alcotest.(check bool) "identical decision stream" true
    (fires
       (Mvl.Traffic.Bursty
          { pattern = Mvl.Traffic.Uniform; burst = 8; duty_pct = 100 })
    = fires Mvl.Traffic.Uniform)

let test_bursty_spatially_inner () =
  (* burstiness is temporal only: the destination set is the inner
     pattern's *)
  let inner = Mvl.Traffic.Transpose in
  let bursty =
    Mvl.Traffic.Bursty { pattern = inner; burst = 4; duty_pct = 50 }
  in
  Alcotest.(check bool) "destination sets equal" true
    (Mvl.Traffic.destinations inner ~n_nodes:16
    = Mvl.Traffic.destinations bursty ~n_nodes:16)

(* one-shard vs three-shard parity under bursty tornado injection: the
   injector draws (init per node, then decision+transition per call)
   ride the shards' replicated RNG streams, so any draw-order skew
   between shards shows up as diverging statistics here *)
let test_bursty_sharded_parity () =
  let graph = (Mvl.Families.hypercube 6).Mvl.Families.graph in
  let config =
    {
      Mvl.Network_sim.default_config with
      Mvl.Network_sim.traffic =
        Mvl.Traffic.Bursty
          { pattern = Mvl.Traffic.Tornado; burst = 8; duty_pct = 25 };
      offered_load = 0.2;
      warmup = 50;
      measure = 300;
      drain = 600;
    }
  in
  let one = Mvl.Network_sim.run ~config graph in
  let sharded = Mvl.Network_sim.run ~config ~jobs:3 graph in
  Alcotest.(check bool) "jobs 3 = jobs 1 under bursty traffic" true
    (one = sharded)

let suite =
  [
    Alcotest.test_case "tornado formula" `Quick test_tornado_formula;
    Alcotest.test_case "tornado bijective at any n" `Quick
      test_tornado_bijective;
    Alcotest.test_case "spec-string round trip" `Quick
      test_spec_string_roundtrip;
    Alcotest.test_case "of_string rejects" `Quick test_of_string_rejects;
    Alcotest.test_case "injector validation" `Quick test_injector_validation;
    Alcotest.test_case "bursty long-run rate" `Quick test_bursty_longrun_rate;
    Alcotest.test_case "duty 100% degenerates to steady" `Quick
      test_duty_100_is_steady;
    Alcotest.test_case "burstiness is temporal only" `Quick
      test_bursty_spatially_inner;
    Alcotest.test_case "sharded parity under bursty traffic" `Quick
      test_bursty_sharded_parity;
  ]
