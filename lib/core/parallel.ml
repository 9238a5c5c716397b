type stats = { workers : int; hits : int; misses : int }
(* /proc/cpuinfo counts every online processor, which over-reports in
   cpuset-limited containers; kept only as a fallback for runtimes
   where the affinity probe answers nothing useful *)
let proc_cpu_count () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> 1
  | ic ->
      let count = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line >= 9 && String.sub line 0 9 = "processor"
           then incr count
         done
       with End_of_file -> ());
      close_in ic;
      max 1 !count

let cpu_count () =
  (* the affinity mask (what recommended_domain_count reads) is the
     truth inside containers; when it reports a single processor it
     cannot be distinguished from a failed probe, so the /proc parse
     gets the last word there *)
  match Domain.recommended_domain_count () with
  | n when n > 1 -> n
  | _ -> proc_cpu_count ()

let default_jobs () = cpu_count ()

(* results come back by reference from the work-stealing pool, which
   clamps the worker count to the items and runs a plain sequential map
   itself when that leaves one worker; the Pipeline cache is shared (it
   locks internally), so the counter delta around the whole map is the
   aggregate over every domain *)
let map ?jobs ~f xs =
  let items = Array.of_list xs in
  let requested =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let before = Pipeline.cache_stats () in
  let results, pool = Mvl_pool.Domain_pool.map ~domains:requested ~f items in
  let after = Pipeline.cache_stats () in
  ( Array.to_list results,
    {
      workers = pool.Mvl_pool.Domain_pool.domains;
      hits = after.Pipeline.hits - before.Pipeline.hits;
      misses = after.Pipeline.misses - before.Pipeline.misses;
    } )
