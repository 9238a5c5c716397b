(* `bench emit`: the machine-readable perf trajectory.

   Runs the full pipeline (with strict validation) on every registry
   family's representative small instance across a layer sweep and
   writes one Mvl.Telemetry record per (spec, L) to BENCH_pipeline.json.
   Key order inside a record is fixed by Pipeline.to_json and records
   are written one per line, so regenerating the file yields reviewable
   diffs (only the "seconds" and cumulative "cache" numbers move).

   `--jobs N` fans the (spec, L) grid out over N work-stealing domains
   of Mvl.Parallel; records land in the file in grid order regardless
   of worker scheduling.  `--stable` strips the volatile
   "seconds"/"cache" fields so two emits at any job counts are
   byte-identical; the CI determinism step diffs
   multi-job runs against a --jobs 1 run.  Non-stable emits additionally
   time the grid at 1/2/4/8 workers and record the scaling curve under
   "jobs_scaling".

   The output file is written to a temporary name in the same directory
   and renamed into place, so a crash or kill mid-run never leaves a
   truncated BENCH_pipeline.json — the previous version stays intact.

   The file is re-read and parsed before exiting: emitting invalid JSON
   is a hard failure, which is what the CI smoke step relies on. *)
open Mvl_core

let layer_sweep = [ 2; 4; 8 ]

let default_path = "BENCH_pipeline.json"

let grid () =
  List.concat_map
    (fun entry ->
      let spec = Mvl.Registry.small_spec entry in
      List.map (fun layers -> (spec, layers)) layer_sweep)
    (Mvl.Registry.all ())

let record (spec, layers) =
  match Mvl.Pipeline.run ~validate:Mvl.Check.Strict ~layers spec with
  | Ok r -> Mvl.Pipeline.to_json r
  | Error msg ->
      Mvl.Telemetry.Obj
        [
          ("schema", Mvl.Telemetry.String "mvl.pipeline.error/1");
          ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
          ("layers", Mvl.Telemetry.Int layers);
          ("error", Mvl.Telemetry.String msg);
        ]

let records ?jobs ~stable () =
  Mvl.Pipeline.cache_reset ();
  let rs, stats = Mvl.Parallel.map ?jobs ~f:record (grid ()) in
  let rs = if stable then List.map Mvl.Telemetry.strip_volatile rs else rs in
  (rs, stats)

(* wall-time the whole grid at 1/2/4/8 domains —
   the runtime's scaling signature, recorded alongside the per-record
   timings.  Each measurement starts from a cold layout cache so every
   point does the same work; speedup is against the 1-worker run of the
   same process, efficiency is speedup/workers.  On a machine with
   fewer cores than workers the extra points measure oversubscription,
   not speedup — readers should mind [cpu_count]. *)
let scaling_points = [ 1; 2; 4; 8 ]

let measure_scaling () =
  let g = grid () in
  let time_run jobs =
    Mvl.Pipeline.cache_reset ();
    let t0 = Mvl.Span.now () in
    let _rs, _stats = Mvl.Parallel.map ~jobs ~f:record g in
    Mvl.Span.now () -. t0
  in
  match scaling_points with
  | [] -> Mvl.Telemetry.Null
  | base_jobs :: _ ->
      let base = time_run base_jobs in
      let point jobs =
        let t = if jobs = base_jobs then base else time_run jobs in
        let speedup = if t > 0.0 then base /. t else 0.0 in
        Mvl.Telemetry.Obj
          [
            ("jobs", Mvl.Telemetry.Int jobs);
            ("seconds", Mvl.Telemetry.Float t);
            ("speedup", Mvl.Telemetry.Float speedup);
            ("efficiency", Mvl.Telemetry.Float (speedup /. float_of_int jobs));
          ]
      in
      Mvl.Telemetry.Obj
        [
          ("backend", Mvl.Telemetry.String "domains");
          ("cpu_count", Mvl.Telemetry.Int (Mvl.Parallel.cpu_count ()));
          ("points", Mvl.Telemetry.List (List.map point scaling_points));
        ]

let write ?stats ?scaling path records =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{\n  \"schema\": \"mvl.bench.pipeline/1\",\n";
      Printf.fprintf oc "  \"layer_sweep\": %s,\n"
        (Mvl.Telemetry.to_string
           (Mvl.Telemetry.List
              (List.map (fun l -> Mvl.Telemetry.Int l) layer_sweep)));
      (match stats with
      | None -> ()
      | Some (s : Mvl.Parallel.stats) ->
          Printf.fprintf oc "  \"cache\": {\"hits\": %d, \"misses\": %d},\n"
            s.Mvl.Parallel.hits s.Mvl.Parallel.misses);
      (match scaling with
      | None -> ()
      | Some json ->
          Printf.fprintf oc "  \"jobs_scaling\": %s,\n"
            (Mvl.Telemetry.to_string json));
      output_string oc "  \"records\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc "    ";
          output_string oc (Mvl.Telemetry.to_string r))
        records;
      output_string oc "\n  ]\n}\n";
      close_out oc;
      (* atomic within the same directory: readers (and interrupted
         runs) only ever observe a complete file *)
      Sys.rename tmp path)

let read_back path expected_records =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Mvl.Telemetry.parse contents with
  | Error msg ->
      Printf.eprintf "bench emit: %s re-reads as invalid JSON: %s\n" path msg;
      exit 1
  | Ok doc -> (
      match Mvl.Telemetry.member "records" doc with
      | Some (Mvl.Telemetry.List rs) when List.length rs = expected_records ->
          ()
      | _ ->
          Printf.eprintf
            "bench emit: %s does not hold the %d expected records\n" path
            expected_records;
          exit 1)

let run ?(path = default_path) ?jobs ?(stable = false) () =
  let rs, stats = records ?jobs ~stable () in
  (* the aggregated worker counters and the scaling timings are
     volatile (scheduling, machine load), so the --stable form omits
     both — that's what keeps two stable emits byte-identical *)
  let scaling = if stable then None else Some (measure_scaling ()) in
  write ?stats:(if stable then None else Some stats) ?scaling path rs;
  read_back path (List.length rs);
  let errors =
    List.filter
      (fun r ->
        Mvl.Telemetry.member "error" r <> None
        || Mvl.Telemetry.member "violations" r
           |> Option.map (Mvl.Telemetry.member "count")
           |> Option.join
           |> Option.map (fun c -> c <> Mvl.Telemetry.Int 0)
           |> Option.value ~default:false)
      rs
  in
  Printf.printf
    "wrote %s: %d records (%d families x L in {%s}), %d worker(s), cache \
     %d/%d hit/miss, %d problem(s)\n"
    path (List.length rs)
    (List.length (Mvl.Registry.all ()))
    (String.concat "," (List.map string_of_int layer_sweep))
    stats.Mvl.Parallel.workers stats.Mvl.Parallel.hits
    stats.Mvl.Parallel.misses (List.length errors);
  List.iter
    (fun r ->
      match Mvl.Telemetry.member "spec" r with
      | Some (Mvl.Telemetry.String s) -> Printf.printf "  problem: %s\n" s
      | _ -> ())
    errors

let run_cli args =
  let usage () =
    prerr_endline "usage: bench emit [--jobs N] [--stable] [-o FILE]";
    exit 2
  in
  let rec go path jobs stable = function
    | [] -> run ~path ?jobs ~stable ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> go path (Some j) stable rest
        | _ -> usage ())
    | "--stable" :: rest -> go path jobs true rest
    | ("-o" | "--out") :: p :: rest -> go p jobs stable rest
    | _ -> usage ()
  in
  go default_path None false args
