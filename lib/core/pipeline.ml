open Mvl_layout
module Span = Mvl_span.Span

type t = {
  spec : Registry.spec;
  family : Families.t;
  layers : int;
  layout : Layout.t;
  metrics : Layout.metrics;
  validation : Check.result option;
  report : Report.t option;
  timings : Span.t list;
  layout_phases : unit option;
  from_cache : bool;
}

type cache_stats = { hits : int; misses : int; coalesced : int }
type validity = Valid | Invalid | Not_validated

(* families are memoized by canonical spec string, layouts by
   "spec@layers" string, both in a GreedyDual-Size-Frequency {!Cache}:
   priority = clock + freq * build-seconds / size, so a microsecond
   ring:64 can never evict a multi-second hypercube:17 the moment it
   lands, yet an expensive entry nobody asks for again ages out through
   the clock term.  Layouts are sized by resident bytes; families count
   as size 1, so their rank is build-seconds times frequency.

   The caches are shared across domains (Parallel.map's domains and
   the serve daemon's workers run pipeline jobs concurrently in one
   process), so every table access goes through [cache_lock] and the
   counters are atomics — stats readers must use the accessors below,
   never raw table state.

   Realization happens outside the lock, under single-flight
   coalescing: the first domain to miss on a key claims an in-flight
   entry (mutex + per-key condition) and builds; every other domain
   missing on the same key blocks on that entry's condition and is
   handed the finished layout by reference, counted in [coalesced]
   instead of duplicating seconds of construction.  Distinct keys
   never wait on each other. *)
let default_cache_capacity = 256

let cache_lock = Mutex.create ()

let locked f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let family_cache : (string, Families.t) Cache.t =
  Cache.create ~capacity:default_cache_capacity ()

let layout_cache : (string, Layout.t) Cache.t =
  Cache.create ~capacity:default_cache_capacity ()

let layout_key key layers = key ^ "@" ^ string_of_int layers

(* single-flight claims: key -> the in-progress build every other
   misser of that key blocks on *)
type inflight = {
  cond : Condition.t;
  mutable outcome : (Layout.t, exn) result option;
}

let inflight_tbl : (string, inflight) Hashtbl.t = Hashtbl.create 16

let hits = Atomic.make 0
let misses = Atomic.make 0
let coalesced = Atomic.make 0

let cache_stats () =
  {
    hits = Atomic.get hits;
    misses = Atomic.get misses;
    coalesced = Atomic.get coalesced;
  }

let cache_size () = locked (fun () -> Cache.length layout_cache)
let cache_capacity () = locked (fun () -> Cache.capacity layout_cache)
let cache_resident_bytes () = locked (fun () -> Cache.resident_bytes layout_cache)
let cache_max_bytes () = locked (fun () -> Cache.max_bytes layout_cache)
let cache_policy_stats () = locked (fun () -> Cache.stats layout_cache)

let set_cache_capacity cap =
  (* shrinking evicts immediately so the bound holds without waiting
     for the next insertion *)
  locked (fun () ->
      Cache.set_capacity layout_cache cap;
      Cache.set_capacity family_cache cap)

let set_cache_bytes b = locked (fun () -> Cache.set_max_bytes layout_cache b)

let cache_reset () =
  locked (fun () ->
      Cache.clear family_cache;
      Cache.clear layout_cache;
      Cache.reset_stats layout_cache);
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set coalesced 0

let run ?validate ?(report = false) ?(cache = true) ~layers spec =
  let key = Registry.to_string spec in
  let build_family () =
    match
      if cache then locked (fun () -> Cache.find_opt family_cache key)
      else None
    with
    | Some fam -> (Ok fam, false)
    | None -> (Registry.build spec, true)
  in
  (* product families place and pack during their construction, so
     those spans land under [build]; a family-cache hit records none *)
  let stages () =
    let t0 = Span.now () in
    match Span.with_ "build" build_family with
    | Error msg, _ -> Error msg
    | Ok family, fresh -> (
      if cache && fresh then
        ignore
          (locked (fun () ->
               Cache.add family_cache key family ~cost:(Span.now () -. t0)
                 ~size:1));
      let build () = family.Families.layout ~layers in
      let realize () =
        if not cache then (build (), false)
        else begin
          let lkey = layout_key key layers in
          (* claim under the lock: a resident layout is a hit, an
             in-progress build for the same key is joined (coalesced),
             otherwise this caller registers itself as the builder *)
          let claim () =
            locked (fun () ->
                match Cache.find_opt layout_cache lkey with
                | Some lay -> `Hit lay
                | None -> (
                    match Hashtbl.find_opt inflight_tbl lkey with
                    | Some fl ->
                        Atomic.incr coalesced;
                        let rec await () =
                          match fl.outcome with
                          | Some r -> r
                          | None ->
                              Condition.wait fl.cond cache_lock;
                              await ()
                        in
                        `Joined (await ())
                    | None ->
                        let fl = { cond = Condition.create (); outcome = None } in
                        Hashtbl.replace inflight_tbl lkey fl;
                        `Build fl))
          in
          match claim () with
          | `Hit lay ->
              Atomic.incr hits;
              (lay, true)
          | `Joined (Ok lay) -> (lay, true)
          | `Joined (Error e) -> raise e
          | `Build fl ->
              (* build outside the lock: a layout can take seconds and
                 other keys' lookups must not stall behind it; every
                 concurrent misser of this key blocks on [fl.cond] *)
              let t0 = Span.now () in
              let outcome =
                match build () with
                | lay -> Ok lay
                | exception e -> Error e
              in
              let build_seconds = Span.now () -. t0 in
              locked (fun () ->
                  Hashtbl.remove inflight_tbl lkey;
                  (match outcome with
                  | Ok lay ->
                      ignore
                        (Cache.add layout_cache lkey lay ~cost:build_seconds
                           ~size:(Layout.resident_bytes lay))
                  | Error _ -> ());
                  fl.outcome <- Some outcome;
                  Condition.broadcast fl.cond);
              (match outcome with
              | Ok lay ->
                  Atomic.incr misses;
                  (lay, false)
              | Error e -> raise e)
        end
      in
      match Span.with_ "layout" realize with
      | exception (Invalid_argument msg | Failure msg) ->
          Error (Printf.sprintf "%s: layout failed (%s)" key msg)
      | layout, from_cache ->
          let validation =
            Option.map
              (fun mode ->
                Span.with_ "validate" (fun () -> Check.run ~mode layout))
              validate
          in
          let metrics =
            Span.with_ "metrics" (fun () -> Layout.metrics layout)
          in
          let report =
            if report then
              Some (Span.with_ "report" (fun () -> Report.analyze layout))
            else None
          in
          Ok
            {
              spec;
              family;
              layers;
              layout;
              metrics;
              validation;
              report;
              timings = [];
              layout_phases = None;
              from_cache;
            })
  in
  let res, timings = Span.collect stages in
  Result.map (fun r -> { r with timings }) res

let run_string ?validate ?report ?cache ~layers s =
  match Registry.parse s with
  | Error _ as err -> err
  | Ok spec -> run ?validate ?report ?cache ~layers spec

let run_exn ?validate ?report ?cache ~layers s =
  match run_string ?validate ?report ?cache ~layers s with
  | Ok r -> r
  | Error msg -> invalid_arg msg

let layout_exn ?cache ~layers s = (run_exn ?cache ~layers s).layout

let violations r =
  Option.map (fun (res : Check.result) -> res.Check.violations) r.validation

let validity r =
  match r.validation with
  | None -> Not_validated
  | Some res -> if res.Check.violations = [] then Valid else Invalid

(* "not validated" used to be conflated with "invalid" here; now an
   unvalidated run validates on demand instead of answering [false] *)
let is_valid ?(mode = Check.Strict) r =
  match r.validation with
  | Some res -> res.Check.violations = []
  | None -> Check.is_valid ~mode r.layout

let stages = [ "build"; "layout"; "validate"; "metrics"; "report" ]

let stage_seconds r stage =
  match List.find_opt (fun (s : Span.t) -> s.name = stage) r.timings with
  | Some s -> s.seconds
  | None -> 0.0

let total_seconds r =
  List.fold_left (fun acc (s : Span.t) -> acc +. s.seconds) 0.0 r.timings

let pp_timings ppf r =
  Format.fprintf ppf "@[<v>%a@,total %.4fs%s@]" Span.pp r.timings
    (total_seconds r)
    (if r.from_cache then " (layout cached)" else "")

(* --- telemetry --------------------------------------------------------- *)

let to_json r =
  let open Telemetry in
  Obj
    [
      ("schema", String "mvl.pipeline.run/1");
      ("spec", String (Registry.to_string r.spec));
      ("family", String r.family.Families.name);
      ("n_nodes", Int r.family.Families.n_nodes);
      ("n_edges", Int (Mvl_topology.Graph.m r.family.Families.graph));
      ("layers", Int r.layers);
      ("from_cache", Bool r.from_cache);
      ( "seconds",
        Obj
          (List.map (fun stage -> (stage, Float (stage_seconds r stage))) stages
          @ [ ("total", Float (total_seconds r)) ]) );
      ("spans", of_spans r.timings);
      ( "cache",
        Obj
          [
            ("hits", Int (Atomic.get hits));
            ("misses", Int (Atomic.get misses));
            ("coalesced", Int (Atomic.get coalesced));
            ("size", Int (cache_size ()));
          ] );
      ("metrics", of_metrics r.metrics);
      ( "violations",
        match r.validation with
        | None -> not_validated
        | Some res -> violation_summary res );
      ( "report",
        match r.report with None -> Null | Some rep -> of_report rep );
    ]
