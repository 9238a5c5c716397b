(* Telemetry: JSON encoder/parser round-trips, schema stability of the
   pipeline records, and the observability-adjacent pipeline bugfixes
   (on-demand validity, truncation flag, monotonic timings, bounded
   cache). *)
open Mvl_core

let json_testable =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Mvl.Telemetry.to_string j))
    ( = )

let parse_exn s =
  match Mvl.Telemetry.parse s with
  | Ok j -> j
  | Error msg -> Alcotest.fail (Printf.sprintf "%S: %s" s msg)

(* --- encoder / parser ---------------------------------------------------- *)

let test_string_escaping_roundtrip () =
  List.iter
    (fun s ->
      let j = Mvl.Telemetry.String s in
      Alcotest.check json_testable
        (Printf.sprintf "%S survives encode/parse" s)
        j
        (parse_exn (Mvl.Telemetry.to_string j)))
    [
      "plain";
      "";
      "with \"quotes\" and \\backslashes\\";
      "newline\nand\ttab\rand\bback";
      "control \x01\x02\x1f chars";
      "form\x0cfeed";
      "utf-8 h\xc3\xa9llo \xe2\x86\x92 \xf0\x9f\x90\xab";
      "slash / stays";
    ]

let test_unicode_escape_decoding () =
  (* \u escapes decode to UTF-8 bytes, including surrogate pairs *)
  Alcotest.check json_testable "BMP escape"
    (Mvl.Telemetry.String "\xe2\x86\x92")
    (parse_exn {|"→"|});
  Alcotest.check json_testable "surrogate pair"
    (Mvl.Telemetry.String "\xf0\x9f\x90\xab")
    (parse_exn {|"🐫"|});
  Alcotest.check json_testable "ascii escape"
    (Mvl.Telemetry.String "A")
    (parse_exn {|"A"|})

let test_value_roundtrip () =
  let v =
    Mvl.Telemetry.(
      Obj
        [
          ("null", Null);
          ("bools", List [ Bool true; Bool false ]);
          ("ints", List [ Int 0; Int (-42); Int 1234567890 ]);
          ("floats", List [ Float 0.5; Float (-3.25); Float 1e-9; Float 3.0 ]);
          ("str", String "nested \"quoted\"");
          ("empty_list", List []);
          ("empty_obj", Obj []);
          ("nested", Obj [ ("deep", List [ Obj [ ("k", Int 1) ] ]) ]);
        ])
  in
  Alcotest.check json_testable "compact round-trips" v
    (parse_exn (Mvl.Telemetry.to_string v));
  Alcotest.check json_testable "pretty round-trips" v
    (parse_exn (Mvl.Telemetry.to_string ~pretty:true v))

let test_float_encoding () =
  (* JSON has no NaN/Infinity; integral floats must stay floats *)
  Alcotest.(check string) "nan is null" "null"
    (Mvl.Telemetry.to_string (Mvl.Telemetry.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Mvl.Telemetry.to_string (Mvl.Telemetry.Float Float.infinity));
  Alcotest.(check string) "integral float keeps the point" "3.0"
    (Mvl.Telemetry.to_string (Mvl.Telemetry.Float 3.0));
  Alcotest.check json_testable "integral float re-parses as Float"
    (Mvl.Telemetry.Float 3.0)
    (parse_exn "3.0")

let test_parse_rejects_malformed () =
  List.iter
    (fun s ->
      match Mvl.Telemetry.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "tru";
      "\"unterminated";
      "1 2";
      "{\"a\":1} trailing";
      "\"bad \\x escape\"";
      "01a";
    ]

(* --- pipeline record schema ---------------------------------------------- *)

let record_keys =
  [
    "schema"; "spec"; "family"; "n_nodes"; "n_edges"; "layers"; "from_cache";
    "seconds"; "layout_phases"; "cache"; "metrics"; "violations"; "report";
  ]

let test_record_schema_golden () =
  Mvl.Pipeline.cache_reset ();
  let r =
    Mvl.Pipeline.run_exn ~validate:Mvl.Check.Strict ~layers:4 "hypercube:4"
  in
  let j = Mvl.Pipeline.to_json r in
  Alcotest.(check (list string)) "top-level keys, in order" record_keys
    (Mvl.Telemetry.keys j);
  Alcotest.(check (list string)) "seconds keys, in stage order"
    [ "build"; "layout"; "validate"; "metrics"; "report"; "total" ]
    (Mvl.Telemetry.keys
       (Option.get (Mvl.Telemetry.member "seconds" j)));
  Alcotest.(check (list string)) "cache keys"
    [ "hits"; "misses"; "coalesced"; "size" ]
    (Mvl.Telemetry.keys (Option.get (Mvl.Telemetry.member "cache" j)));
  Alcotest.(check (list string)) "layout phase keys"
    [ "place_seconds"; "pack_seconds"; "terminals_seconds"; "emit_seconds";
      "build_seconds" ]
    (Mvl.Telemetry.keys
       (Option.get (Mvl.Telemetry.member "layout_phases" j)));
  Alcotest.(check (list string)) "metrics keys"
    [ "width"; "height"; "area"; "layers"; "volume"; "max_wire";
      "total_wire"; "vias" ]
    (Mvl.Telemetry.keys (Option.get (Mvl.Telemetry.member "metrics" j)));
  Alcotest.(check (list string)) "violation summary keys"
    [ "checked"; "mode"; "count"; "truncated"; "rules" ]
    (Mvl.Telemetry.keys (Option.get (Mvl.Telemetry.member "violations" j)));
  (* the emitted text is valid JSON in both renderings *)
  Alcotest.check json_testable "record re-parses" j
    (parse_exn (Mvl.Telemetry.to_string ~pretty:true j))

let test_cached_pipeline_serializes_from_cache () =
  Mvl.Pipeline.cache_reset ();
  ignore (Mvl.Pipeline.run_exn ~layers:3 "kary:3:2");
  let r = Mvl.Pipeline.run_exn ~layers:3 "kary:3:2" in
  let j = Mvl.Pipeline.to_json r in
  Alcotest.(check (option bool)) "from_cache is true"
    (Some true)
    (match Mvl.Telemetry.member "from_cache" j with
    | Some (Mvl.Telemetry.Bool b) -> Some b
    | _ -> None);
  Alcotest.(check (option bool)) "unvalidated run says checked:false"
    (Some false)
    (match
       Option.bind
         (Mvl.Telemetry.member "violations" j)
         (Mvl.Telemetry.member "checked")
     with
    | Some (Mvl.Telemetry.Bool b) -> Some b
    | _ -> None)

(* --- validity (bugfix: not-validated used to read as invalid) ------------ *)

let broken_copy (r : Mvl.Pipeline.t) =
  (* clone one wire's route onto another edge: overlapping + detached *)
  let lay = r.Mvl.Pipeline.layout in
  let wires = Array.copy (Mvl.Layout.wires lay) in
  wires.(1) <- { wires.(0) with Mvl.Wire.edge = wires.(1).Mvl.Wire.edge };
  Mvl.Layout.make ~graph:(Mvl.Layout.graph lay) ~layers:(Mvl.Layout.layers lay)
    ~node_layers:(Mvl.Layout.node_layers lay) ~nodes:(Mvl.Layout.nodes lay)
    ~wires
    ()

let test_validity_three_states () =
  Mvl.Pipeline.cache_reset ();
  let unvalidated = Mvl.Pipeline.run_exn ~layers:4 "hypercube:4" in
  Alcotest.(check bool) "unvalidated is Not_validated" true
    (Mvl.Pipeline.validity unvalidated = Mvl.Pipeline.Not_validated);
  (* the old bug: is_valid answered false here although the layout is
     fine; now it validates on demand *)
  Alcotest.(check bool) "valid layout reads valid on demand" true
    (Mvl.Pipeline.is_valid unvalidated);
  let validated =
    Mvl.Pipeline.run_exn ~validate:Mvl.Check.Strict ~layers:4 "hypercube:4"
  in
  Alcotest.(check bool) "validated run is Valid" true
    (Mvl.Pipeline.validity validated = Mvl.Pipeline.Valid);
  Alcotest.(check bool) "validated run is valid" true
    (Mvl.Pipeline.is_valid validated)

let test_unvalidated_broken_run_not_valid () =
  (* an unvalidated run over broken geometry must NOT be reported valid
     — on-demand validation catches it *)
  Mvl.Pipeline.cache_reset ();
  let r = Mvl.Pipeline.run_exn ~layers:4 "hypercube:4" in
  let broken =
    { r with Mvl.Pipeline.layout = broken_copy r; validation = None }
  in
  Alcotest.(check bool) "still Not_validated" true
    (Mvl.Pipeline.validity broken = Mvl.Pipeline.Not_validated);
  Alcotest.(check bool) "broken layout reads invalid" false
    (Mvl.Pipeline.is_valid broken)

(* --- truncation flag (bugfix: exactly-limit looked complete) ------------- *)

let test_truncated_validation_flagged () =
  Mvl.Pipeline.cache_reset ();
  let r = Mvl.Pipeline.run_exn ~layers:4 "hypercube:4" in
  let broken = broken_copy r in
  let capped = Mvl.Check.run ~max_violations:1 broken in
  Alcotest.(check int) "capped at one violation" 1
    (List.length capped.Mvl.Check.violations);
  Alcotest.(check bool) "capped result is flagged truncated" true
    capped.Mvl.Check.truncated;
  let full = Mvl.Check.run ~max_violations:10_000 broken in
  Alcotest.(check bool) "uncapped result is not truncated" false
    full.Mvl.Check.truncated;
  Alcotest.(check bool) "full list exceeds the cap" true
    (List.length full.Mvl.Check.violations > 1);
  (* and the flag survives serialization *)
  Alcotest.(check (option bool)) "truncated in JSON"
    (Some true)
    (match
       Mvl.Telemetry.member "truncated" (Mvl.Telemetry.of_check capped)
     with
    | Some (Mvl.Telemetry.Bool b) -> Some b
    | _ -> None);
  (* rule histogram covers every recorded violation *)
  let summary = Mvl.Telemetry.violation_summary full in
  let histogram_total =
    match Mvl.Telemetry.member "rules" summary with
    | Some (Mvl.Telemetry.Obj fields) ->
        List.fold_left
          (fun acc (_, v) ->
            match v with Mvl.Telemetry.Int n -> acc + n | _ -> acc)
          0 fields
    | _ -> -1
  in
  Alcotest.(check int) "rule counts sum to the violation count"
    (List.length full.Mvl.Check.violations)
    histogram_total

(* --- monotonic timings --------------------------------------------------- *)

let test_timings_non_negative () =
  Mvl.Pipeline.cache_reset ();
  for _ = 1 to 20 do
    let r =
      Mvl.Pipeline.run_exn ~validate:Mvl.Check.Strict ~report:true ~layers:2
        "tree:4"
    in
    List.iter
      (fun (t : Mvl.Pipeline.stage_time) ->
        Alcotest.(check bool)
          (t.Mvl.Pipeline.stage ^ " timing is non-negative")
          true
          (t.Mvl.Pipeline.seconds >= 0.0))
      r.Mvl.Pipeline.timings
  done

(* --- bounded cache (bugfix: unbounded growth across sweeps) -------------- *)

let test_cache_capacity_bound () =
  let original = Mvl.Pipeline.cache_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Mvl.Pipeline.set_cache_capacity original;
      Mvl.Pipeline.cache_reset ())
    (fun () ->
      Mvl.Pipeline.cache_reset ();
      Mvl.Pipeline.set_cache_capacity 3;
      let sweep = [ 2; 3; 4; 5; 6; 7; 8; 9 ] in
      List.iter
        (fun layers -> ignore (Mvl.Pipeline.run_exn ~layers "hypercube:4"))
        sweep;
      Alcotest.(check bool) "long sweep stays under the cap" true
        (Mvl.Pipeline.cache_size () <= 3);
      let s1 = Mvl.Pipeline.cache_stats () in
      Alcotest.(check int) "every distinct layout constructed once"
        (List.length sweep) s1.Mvl.Pipeline.misses;
      Alcotest.(check int) "no spurious hits" 0 s1.Mvl.Pipeline.hits;
      (* second pass: evicted entries re-miss, resident ones hit; the
         counters stay consistent with exactly one event per run *)
      List.iter
        (fun layers -> ignore (Mvl.Pipeline.run_exn ~layers "hypercube:4"))
        sweep;
      let s2 = Mvl.Pipeline.cache_stats () in
      Alcotest.(check int) "one hit or miss per run"
        (2 * List.length sweep)
        (s2.Mvl.Pipeline.hits + s2.Mvl.Pipeline.misses);
      Alcotest.(check bool) "still under the cap" true
        (Mvl.Pipeline.cache_size () <= 3);
      (* shrinking evicts immediately *)
      Mvl.Pipeline.set_cache_capacity 1;
      Alcotest.(check bool) "shrink applies immediately" true
        (Mvl.Pipeline.cache_size () <= 1))

let suite =
  [
    Alcotest.test_case "string escaping round-trips" `Quick
      test_string_escaping_roundtrip;
    Alcotest.test_case "unicode escapes decode" `Quick
      test_unicode_escape_decoding;
    Alcotest.test_case "values round-trip" `Quick test_value_roundtrip;
    Alcotest.test_case "float encoding" `Quick test_float_encoding;
    Alcotest.test_case "malformed JSON rejected" `Quick
      test_parse_rejects_malformed;
    Alcotest.test_case "record schema golden" `Quick test_record_schema_golden;
    Alcotest.test_case "cached run serializes from_cache" `Quick
      test_cached_pipeline_serializes_from_cache;
    Alcotest.test_case "validity three states" `Quick
      test_validity_three_states;
    Alcotest.test_case "unvalidated broken run not valid" `Quick
      test_unvalidated_broken_run_not_valid;
    Alcotest.test_case "truncated validation flagged" `Quick
      test_truncated_validation_flagged;
    Alcotest.test_case "timings non-negative" `Quick test_timings_non_negative;
    Alcotest.test_case "cache capacity bound" `Quick test_cache_capacity_bound;
  ]
