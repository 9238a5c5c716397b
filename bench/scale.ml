(* `bench scale`: the layout scale benchmark and the 10^5-node gates.

   Constructs and fully verifies (strict model) a grid of large
   instances, recording per-record wall times, the span tree of the
   build, layout and verification ({!Mvl.Span}), verify throughput in
   segments per second, layout metrics against the paper's closed-form
   leading terms, and the process peak RSS (VmHWM) after each record.
   Results land in BENCH_layout.json (schema mvl.bench.layout/1) via
   the same tmp-write + rename + parse-back discipline as `bench emit`,
   so a crash never leaves a truncated file and emitting invalid JSON
   is a hard failure.

   The full grid ends with hypercube:18 — 262144 nodes — which doubles
   as the memory gate: that record must verify with zero violations and
   the peak RSS afterwards must stay under 4 GiB.  hypercube:17 earlier
   in the grid is the timing gate: its build + layout wall time must
   stay under 3.7 s.  Either gate failing exits non-zero.  `--quick`
   swaps in a small grid for CI smoke and skips both gates.

   Layout construction shards wire emission over `--jobs` domains
   (Families.layout_jobs); the geometry is byte-identical at every job
   count, which `--stable` makes checkable end to end: it strips the
   volatile fields (every `*_seconds` / `*_per_second` key, the
   peak RSS, the spans) from the written records, so two runs
   at different job counts must produce byte-identical files.

   VmHWM is a process-lifetime high-water mark, so the grid runs
   smallest-first and each record reports the running peak; only the
   final (largest) record's value is gated. *)
open Mvl_core

let default_path = "BENCH_layout.json"

let gate_spec = "hypercube:18"

let gate_limit_kib = 4 * 1024 * 1024 (* 4 GiB *)

let time_gate_spec = "hypercube:17"

let time_gate_limit_s = 3.7 (* build + layout *)

let quick_grid = [ ("hypercube:10", 4); ("kary:4:5", 4); ("hypercube:12", 4) ]

let full_grid =
  [
    ("hypercube:12", 4);
    ("kary:4:6", 4);
    ("hypercube:14", 4);
    ("kary:4:8", 4);
    (time_gate_spec, 4);
    (gate_spec, 4);
  ]

(* a field the byte-identity diff must not see: wall times, throughput,
   the RSS high-water mark and the spans all vary run to run
   and job count to job count *)
let volatile_key k =
  let suffix s =
    let ls = String.length s and lk = String.length k in
    lk >= ls && String.sub k (lk - ls) ls = s
  in
  suffix "_seconds" || suffix "_per_second" || k = "peak_rss_kib"
  || k = "spans"

let stable_record = function
  | Mvl.Telemetry.Obj fields ->
      Mvl.Telemetry.Obj
        (List.filter (fun (k, _) -> not (volatile_key k)) fields)
  | j -> j

let record ~jobs (spec_str, layers) =
  let spec = Mvl.Registry.spec_exn spec_str in
  let (fam, layout, result), spans =
    Mvl.Span.collect (fun () ->
        let fam =
          Mvl.Span.with_ "build" (fun () -> Mvl.Registry.build_exn spec)
        in
        let layout =
          Mvl.Span.with_ "layout" (fun () ->
              fam.Mvl.Families.layout_jobs ~jobs ~layers)
        in
        let result =
          Mvl.Span.with_ "validate" (fun () ->
              Mvl.Check.run ~mode:Mvl.Check.Strict ~jobs layout)
        in
        (fam, layout, result))
  in
  let seconds name =
    match List.find_opt (fun s -> s.Mvl.Span.name = name) spans with
    | Some s -> s.Mvl.Span.seconds
    | None -> 0.0
  in
  let build_s = seconds "build"
  and layout_s = seconds "layout"
  and verify_s = seconds "validate" in
  let violations = List.length result.Mvl.Check.violations in
  let m = Mvl.Layout.metrics layout in
  let g = Mvl.Layout.geom layout in
  let n_segments = Mvl.Geom.n_segments g in
  let seg_per_s =
    if verify_s > 0.0 then float_of_int n_segments /. verify_s else 0.0
  in
  let peak = Mvl.Span.peak_rss_kib () in
  let open Mvl.Telemetry in
  let fields =
    [
      ("spec", String spec_str);
      ("layers", Int layers);
      ("n_nodes", Int fam.Mvl.Families.n_nodes);
      ("n_edges", Int (Mvl.Graph.m fam.Mvl.Families.graph));
      ("n_segments", Int n_segments);
      ("build_seconds", Float build_s);
      ("layout_seconds", Float layout_s);
      ("verify_seconds", Float verify_s);
      ("verify_segments_per_second", Float seg_per_s);
      ("spans", of_spans spans);
      ("violations", Int violations);
      ("area", Int m.Mvl.Layout.area);
      ("max_wire", Int m.Mvl.Layout.max_wire);
      ("total_wire", Int m.Mvl.Layout.total_wire);
      ("vias", Int m.Mvl.Layout.vias);
      ("peak_rss_kib", Int peak);
    ]
  in
  let fields =
    match fam.Mvl.Families.paper_area with
    | Some f ->
        let predicted = f ~layers in
        fields
        @ [
            ("paper_area", Float predicted);
            ( "paper_area_ratio",
              Float (float_of_int m.Mvl.Layout.area /. predicted) );
          ]
    | None -> fields
  in
  Format.printf
    "  %-14s L=%d  N=%-6d  build %.2fs  layout %.2fs  verify %.2fs  (%.2e \
     seg/s)  violations=%d  peak=%d KiB@.    %a@."
    spec_str layers fam.Mvl.Families.n_nodes build_s layout_s verify_s
    seg_per_s violations peak Mvl.Span.pp spans;
  (Obj fields, (spec_str, violations, peak, build_s +. layout_s))

let write path ~quick records =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{\n  \"schema\": \"mvl.bench.layout/1\",\n";
      Printf.fprintf oc "  \"quick\": %b,\n" quick;
      output_string oc "  \"records\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc "    ";
          output_string oc (Mvl.Telemetry.to_string r))
        records;
      output_string oc "\n  ]\n}\n";
      close_out oc;
      Sys.rename tmp path)

let read_back path expected_records =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Mvl.Telemetry.parse contents with
  | Error msg ->
      Printf.eprintf "bench scale: %s re-reads as invalid JSON: %s\n" path msg;
      exit 1
  | Ok doc -> (
      match Mvl.Telemetry.member "records" doc with
      | Some (Mvl.Telemetry.List rs) when List.length rs = expected_records -> ()
      | _ ->
          Printf.eprintf
            "bench scale: %s does not hold the %d expected records\n" path
            expected_records;
          exit 1)

let run ?(path = default_path) ?(quick = false) ?(jobs = 1) ?(stable = false)
    () =
  let grid = if quick then quick_grid else full_grid in
  Printf.printf "bench scale (%s grid, %d records, jobs=%d%s):\n%!"
    (if quick then "quick" else "full")
    (List.length grid) jobs
    (if stable then ", stable output" else "");
  let out =
    List.map
      (fun entry ->
        (* drop the previous instance before building the next so VmHWM
           reflects one instance at a time, not two neighbours at once *)
        Gc.compact ();
        record ~jobs entry)
      grid
  in
  let records = List.map fst out in
  let records = if stable then List.map stable_record records else records in
  write path ~quick records;
  read_back path (List.length records);
  Printf.printf "wrote %s: %d records\n%!" path (List.length records);
  let failures =
    List.filter (fun (_, (_, violations, _, _)) -> violations <> 0) out
  in
  List.iter
    (fun (_, (spec, violations, _, _)) ->
      Printf.eprintf "bench scale: %s FAILED verification (%d violations)\n"
        spec violations)
    failures;
  let find spec = List.find_opt (fun (_, (s, _, _, _)) -> s = spec) out in
  let mem_gate_failed =
    if quick then false
    else
      match find gate_spec with
      | None ->
          Printf.eprintf "bench scale: gate instance %s missing from grid\n"
            gate_spec;
          true
      | Some (_, (_, violations, peak, _)) ->
          let mem_ok = peak > 0 && peak < gate_limit_kib in
          Printf.printf
            "gate %s: violations=%d  peak=%d KiB (limit %d KiB)  %s\n%!"
            gate_spec violations peak gate_limit_kib
            (if violations = 0 && mem_ok then "PASS" else "FAIL");
          not (violations = 0 && mem_ok)
  in
  let time_gate_failed =
    if quick then false
    else
      match find time_gate_spec with
      | None ->
          Printf.eprintf
            "bench scale: timing gate instance %s missing from grid\n"
            time_gate_spec;
          true
      | Some (_, (_, _, _, construct_s)) ->
          let ok = construct_s <= time_gate_limit_s in
          Printf.printf "gate %s: build+layout %.2fs (limit %.2fs)  %s\n%!"
            time_gate_spec construct_s time_gate_limit_s
            (if ok then "PASS" else "FAIL");
          not ok
  in
  if failures <> [] || mem_gate_failed || time_gate_failed then exit 1

let run_cli args =
  let usage () =
    prerr_endline
      "usage: bench scale [--quick] [--stable] [--jobs N] [-o FILE]";
    exit 2
  in
  let rec go path quick jobs stable = function
    | [] -> run ~path ~quick ~jobs ~stable ()
    | "--quick" :: rest -> go path true jobs stable rest
    | "--stable" :: rest -> go path quick jobs true rest
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> go path quick j stable rest
        | _ -> usage ())
    | ("-o" | "--out") :: p :: rest -> go p quick jobs stable rest
    | _ -> usage ()
  in
  go default_path false 1 false args
