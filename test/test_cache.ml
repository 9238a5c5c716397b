(* Mvl.Cache (GreedyDual-Size-Frequency) and the single-flight layout
   cache built on it.

   The GDSF cases pin the policy's observable order on hand-built
   cost/size/frequency sequences: eviction removes the minimum
   [clock + freq * cost / size] entry with deterministic oldest-first
   tie-breaks, the clock inherits the victim's priority, and a
   candidate that ranks below every resident is the one rejected.
   The duplicate-add case pins a regression queue-based eviction is
   prone to: re-adding a resident key must not create a second queue
   entry (a second eviction of the same key).

   The concurrent case drives Mvl.Pipeline.run for one (spec, layers)
   key from N domains at once: single-flight coalescing must build the
   layout exactly once and hand every joiner the same result. *)

open Mvl_core
module Cache = Mvl_core.Cache

let mk ?(max_bytes = max_int) ~capacity () =
  Cache.create ~max_bytes ~capacity ()

let test_hit_miss_stats () =
  let c = mk ~capacity:4 () in
  Alcotest.(check (option string)) "miss on empty" None (Cache.find_opt c 1);
  ignore (Cache.add c 1 "one" ~cost:1.0 ~size:1);
  Alcotest.(check (option string)) "hit" (Some "one") (Cache.find_opt c 1);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "admissions" 1 s.Cache.admissions

let test_eviction_order_by_cost () =
  (* equal size and frequency: priority reduces to cost, so the
     cheapest build is evicted first *)
  let c = mk ~capacity:3 () in
  ignore (Cache.add c "cheap" () ~cost:1.0 ~size:10);
  ignore (Cache.add c "mid" () ~cost:5.0 ~size:10);
  ignore (Cache.add c "dear" () ~cost:9.0 ~size:10);
  Alcotest.(check (option string)) "victim is cheapest" (Some "cheap")
    (Cache.victim c);
  ignore (Cache.add c "dear2" () ~cost:9.0 ~size:10);
  Alcotest.(check bool) "cheap evicted" false (Cache.mem c "cheap");
  Alcotest.(check bool) "mid survives" true (Cache.mem c "mid")

let test_eviction_order_by_size () =
  (* equal cost: the big entry has the lower priority *)
  let c = mk ~capacity:2 () in
  ignore (Cache.add c "big" () ~cost:4.0 ~size:1000);
  ignore (Cache.add c "small" () ~cost:4.0 ~size:10);
  ignore (Cache.add c "other" () ~cost:4.0 ~size:10);
  Alcotest.(check bool) "big evicted" false (Cache.mem c "big");
  Alcotest.(check bool) "small survives" true (Cache.mem c "small")

let test_frequency_protects () =
  (* a cheap entry hit often outranks an expensive never-hit one:
     freq * cost / size with freq bumped per find *)
  let c = mk ~capacity:2 () in
  ignore (Cache.add c "hot_cheap" () ~cost:1.0 ~size:1);
  ignore (Cache.add c "cold_dear" () ~cost:3.0 ~size:1);
  for _ = 1 to 5 do
    ignore (Cache.find_opt c "hot_cheap")
  done;
  (* hot_cheap: freq 6 * 1.0 = 6; cold_dear: freq 1 * 3.0 = 3 *)
  Alcotest.(check (option string)) "cold is the victim" (Some "cold_dear")
    (Cache.victim c)

let test_tie_break_oldest_first () =
  let c = mk ~capacity:3 () in
  ignore (Cache.add c "a" () ~cost:2.0 ~size:2);
  ignore (Cache.add c "b" () ~cost:2.0 ~size:2);
  ignore (Cache.add c "c" () ~cost:2.0 ~size:2);
  Alcotest.(check (option string)) "oldest of equal priorities" (Some "a")
    (Cache.victim c);
  ignore (Cache.add c "d" () ~cost:2.0 ~size:2);
  Alcotest.(check bool) "a evicted" false (Cache.mem c "a");
  Alcotest.(check (option string)) "then b" (Some "b") (Cache.victim c)

let test_clock_aging () =
  (* after an eviction the clock equals the victim's priority, so a
     fresh arrival cheaper than every resident can still be admitted —
     its rank rides on the advanced clock while stale residents keep
     their old one *)
  let c = mk ~capacity:2 () in
  ignore (Cache.add c "old1" () ~cost:1.0 ~size:1);
  ignore (Cache.add c "old2" () ~cost:1.5 ~size:1);
  Alcotest.(check (float 1e-9)) "clock starts at 0" 0.0 (Cache.clock c);
  ignore (Cache.add c "new1" () ~cost:1.0 ~size:1);
  (* old1 (prio 1.0, oldest of the 1.0 tie with new1) evicted *)
  Alcotest.(check bool) "old1 evicted" false (Cache.mem c "old1");
  Alcotest.(check (float 1e-9)) "clock inherited victim prio" 1.0
    (Cache.clock c);
  let admitted = Cache.add c "fresh" () ~cost:0.1 ~size:1 in
  Alcotest.(check bool) "aged admission of a cheap entry" true admitted;
  Alcotest.(check (option (float 1e-9))) "fresh prio = clock + cost/size"
    (Some 1.1)
    (Cache.priority c "fresh");
  Alcotest.(check bool) "stale minimum evicted instead" false
    (Cache.mem c "new1")

let test_rejection () =
  (* residents outrank the candidate: the candidate itself is the
     victim and add returns false, residents untouched *)
  let c = mk ~capacity:2 () in
  ignore (Cache.add c "a" () ~cost:9.0 ~size:1);
  ignore (Cache.add c "b" () ~cost:9.0 ~size:1);
  let admitted = Cache.add c "junk" () ~cost:0.001 ~size:1000 in
  Alcotest.(check bool) "rejected" false admitted;
  Alcotest.(check bool) "a kept" true (Cache.mem c "a");
  Alcotest.(check bool) "b kept" true (Cache.mem c "b");
  Alcotest.(check int) "rejection counted" 1
    (Cache.stats c).Cache.rejections

let test_byte_budget () =
  let c = mk ~max_bytes:100 ~capacity:100 () in
  ignore (Cache.add c 1 () ~cost:1.0 ~size:40);
  ignore (Cache.add c 2 () ~cost:2.0 ~size:40);
  Alcotest.(check int) "resident bytes" 80 (Cache.resident_bytes c);
  (* 40 more bytes exceed 100: the cheapest resident goes *)
  ignore (Cache.add c 3 () ~cost:3.0 ~size:40);
  Alcotest.(check bool) "cheapest evicted" false (Cache.mem c 1);
  Alcotest.(check int) "bytes back under budget" 80 (Cache.resident_bytes c);
  (* an entry larger than the whole budget is rejected outright *)
  let admitted = Cache.add c 4 () ~cost:100.0 ~size:101 in
  Alcotest.(check bool) "oversized rejected" false admitted;
  Alcotest.(check bool) "residents untouched" true (Cache.mem c 2)

let test_duplicate_add_updates_in_place () =
  (* re-adding a resident key must update in place, not enqueue a
     duplicate whose eviction would remove the key while a later queue
     entry still names it *)
  let c = mk ~capacity:2 () in
  ignore (Cache.add c "k" "v1" ~cost:1.0 ~size:1);
  ignore (Cache.add c "k" "v2" ~cost:1.0 ~size:1);
  ignore (Cache.add c "k" "v3" ~cost:1.0 ~size:1);
  Alcotest.(check int) "one entry" 1 (Cache.length c);
  Alcotest.(check (option string)) "latest value" (Some "v3")
    (Cache.find_opt c "k");
  (* fill and overflow: k must be evicted exactly once, leaving the
     cache consistent *)
  ignore (Cache.add c "a" "a" ~cost:9.0 ~size:1);
  ignore (Cache.add c "b" "b" ~cost:9.0 ~size:1);
  Alcotest.(check int) "still bounded" 2 (Cache.length c);
  Alcotest.(check bool) "no ghost entry"
    true
    (Cache.mem c "a" && Cache.mem c "b" && not (Cache.mem c "k"))

let test_capacity_zero_disables () =
  let c = mk ~capacity:0 () in
  Alcotest.(check bool) "nothing admitted" false
    (Cache.add c 1 () ~cost:1.0 ~size:1);
  Alcotest.(check int) "empty" 0 (Cache.length c)

let test_shrink_evicts () =
  let c = mk ~capacity:4 () in
  ignore (Cache.add c 1 () ~cost:1.0 ~size:1);
  ignore (Cache.add c 2 () ~cost:2.0 ~size:1);
  ignore (Cache.add c 3 () ~cost:3.0 ~size:1);
  Cache.set_capacity c 1;
  Alcotest.(check int) "shrunk" 1 (Cache.length c);
  Alcotest.(check bool) "highest priority survives" true (Cache.mem c 3)

(* --- property: the victim is always the minimum (prio, seq) -------- *)

let prop_victim_is_minimum =
  QCheck.Test.make ~count:200
    ~name:"victim minimizes (priority, insertion order)"
    QCheck.(
      small_list (triple (int_range 1 5) (int_range 1 100) (int_range 1 100)))
    (fun ops ->
      let c = mk ~capacity:1000 () in
      List.iter
        (fun (k, cost, size) ->
          ignore
            (Cache.add c k () ~cost:(float_of_int cost) ~size))
        ops;
      match Cache.victim c with
      | None -> Cache.length c = 0
      | Some v ->
          let vp = Option.get (Cache.priority c v) in
          let ok = ref true in
          Cache.iter
            (fun k () ->
              let p = Option.get (Cache.priority c k) in
              if p < vp -. 1e-12 then ok := false)
            c;
          !ok)

(* --- concurrent single-flight over the pipeline cache --------------- *)

let test_single_flight_concurrent () =
  Mvl.Pipeline.cache_reset ();
  let n = 6 in
  let spec = "hypercube:7" in
  let results =
    Array.init n (fun _ ->
        Domain.spawn (fun () ->
            match Mvl.Pipeline.run_string ~layers:3 spec with
            | Ok r -> r
            | Error msg -> failwith msg))
    |> Array.map Domain.join
  in
  let stats = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "exactly one build" 1
    stats.Mvl.Pipeline.misses;
  Alcotest.(check int) "everyone else hit or joined" (n - 1)
    (stats.Mvl.Pipeline.hits
    + stats.Mvl.Pipeline.coalesced);
  let first = results.(0).Mvl.Pipeline.layout in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "same layout object shared" true
        (r.Mvl.Pipeline.layout == first))
    results;
  Mvl.Pipeline.cache_reset ()

let suite =
  [
    Alcotest.test_case "hit/miss stats" `Quick test_hit_miss_stats;
    Alcotest.test_case "eviction order: cost" `Quick
      test_eviction_order_by_cost;
    Alcotest.test_case "eviction order: size" `Quick
      test_eviction_order_by_size;
    Alcotest.test_case "frequency protects" `Quick test_frequency_protects;
    Alcotest.test_case "tie-break oldest first" `Quick
      test_tie_break_oldest_first;
    Alcotest.test_case "clock aging" `Quick test_clock_aging;
    Alcotest.test_case "candidate rejection" `Quick test_rejection;
    Alcotest.test_case "byte budget" `Quick test_byte_budget;
    Alcotest.test_case "duplicate add updates in place" `Quick
      test_duplicate_add_updates_in_place;
    Alcotest.test_case "capacity 0 disables" `Quick
      test_capacity_zero_disables;
    Alcotest.test_case "set_capacity shrink evicts" `Quick test_shrink_evicts;
    QCheck_alcotest.to_alcotest prop_victim_is_minimum;
    Alcotest.test_case "single-flight: N domains, one build" `Quick
      test_single_flight_concurrent;
  ]
