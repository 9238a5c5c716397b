(* Measurement engine of the repository benchmark.  run.py builds and
   invokes it as

     mvlbench.exe --workload W --seed N --seconds S --trace 0|1 [--mvl EXE]

   and it prints one JSON record: the operations attempted and failed
   (every failed output check counts), the failed checks themselves,
   and the metrics — end-to-end ones with --trace 0, per-layer ones
   with --trace 1.  Inputs derive from the seed alone. *)
open Mvl_core

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and mvl = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--mvl", Arg.Set_string mvl, "EXE the mvl CLI (serve-zipf)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "mvlbench.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let r = Common.create () in
  let t0 = Common.now () in
  (match !workload with
  | "validate-large" -> W_validate.run r ~seed ~seconds ~trace
  | "construct-catalog" -> W_construct.run r ~seed ~seconds ~trace
  | "simulate" -> W_simulate.run r ~seed ~seconds ~trace
  | "serve-zipf" -> W_serve.run r ~seed ~seconds ~trace ~mvl:!mvl
  | w ->
      prerr_endline ("mvlbench: unknown workload " ^ w);
      exit 2);
  (* end-to-end metrics every workload reports *)
  if not trace then begin
    if not (List.exists (fun m -> m.Common.name = "peak_rss_mib") r.Common.metrics)
    then
      Common.metric r "peak_rss_mib" "MiB" (Common.peak_rss_mib "self");
    Common.metric r "ok_frac" "ratio" (Common.ok_frac r)
  end;
  let open Telemetry in
  let num x = Float x in
  let record =
    Obj
      ([
         ("schema", String "mvl.perfbench.run/1");
         ("workload", String !workload);
         ("seed", Int seed);
         ("trace", Bool trace);
         ("ocaml_version", String Sys.ocaml_version);
         ("wall_s", num (Common.now () -. t0));
         ("attempted", Int r.Common.attempted);
         ("failed", Int r.Common.failed);
         ( "failed_checks",
           List
             (List.rev_map
                (fun c ->
                  Obj
                    [
                      ("check", String c.Common.check);
                      ("detail", String c.Common.detail);
                    ])
                r.Common.checks) );
         ( "host_calibration_s",
           List (List.rev_map num !Common.Host.samples) );
         ( "metrics",
           Obj
             (List.rev_map
                (fun m ->
                  ( m.Common.name,
                    Obj
                      ([
                         ("value", num m.Common.value);
                         ("unit", String m.Common.unit);
                       ]
                      @
                      match m.Common.raw with
                      | Some x -> [ ("raw", num x) ]
                      | None -> []) ))
                r.Common.metrics) );
       ]
      @ List.rev r.Common.notes)
  in
  print_endline (to_string record)
