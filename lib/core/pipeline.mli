(** The cached construction pipeline: one instrumented path from a
    family spec to a measured (optionally validated and reported)
    layout, shared by the CLI, the bench harness, the examples and the
    tests.

    Stages: [build] (family construction) → [layout] → [validate]
    (optional) → [metrics] → [report] (optional).  Each run collects
    one {!Mvl_span.Span} forest: a root span per stage run, with the
    construction phases ([place], [pack] under [build]; [terminals],
    [emit], [geom] under [layout]) and the verifier passes ([check.*]
    under [validate]) nested below.

    Layouts are memoized in a process-wide bounded {!Cache} keyed by
    ["spec@layers"] under the GreedyDual-Size-Frequency policy
    (priority grows with hit frequency and build seconds, shrinks with
    resident bytes), so a sweep over [L] — or a metrics pass followed
    by a simulation on the same spec — constructs each distinct layout
    exactly once while it stays resident, and a burst of cheap small
    specs cannot flush a layout that took seconds to build.  Families
    are memoized the same way, keyed by the canonical spec string
    (size 1, cost = family build seconds).
    Hit/miss/coalesced counters are exposed for verification.

    The cache is domain-safe: table accesses are serialized behind one
    mutex (held only for the lookup or insertion itself, never while a
    layout is being built) and the counters are atomics, so
    {!Parallel.map}'s domains and the serve daemon share one
    cache across all their workers and a resident layout is handed out
    by reference.  Concurrent misses on the {e same} key are
    single-flighted: the first misser builds, the rest block on a
    per-key condition and receive the finished layout (counted in
    [coalesced], with [from_cache = true]); misses on distinct keys
    never wait on each other.

    Every run serializes to one JSON record ({!to_json}) through
    {!Telemetry} — the machine-readable surface behind
    [mvl ... --json] and [bench emit]. *)

open Mvl_layout

type t = {
  spec : Registry.spec;
  family : Families.t;
  layers : int;
  layout : Layout.t;
  metrics : Layout.metrics;
  validation : Check.result option;
      (** [None] when validation was not requested *)
  report : Report.t option;
  timings : Mvl_span.Span.t list;
      (** the run's span forest: one root per stage run, in stage
          order.  A family-cache hit records no [place]/[pack], a
          layout-cache hit no [terminals]/[emit]/[geom]. *)
  layout_phases : unit option;
      (** always [None]: the phases are spans in [timings] now.  The
          field stays only because the repository benchmark builds this
          record literally; it goes with the next benchmark change. *)
  from_cache : bool;          (** the layout stage was a cache hit *)
}

val run :
  ?validate:Check.mode ->
  ?report:bool ->
  ?cache:bool ->
  layers:int ->
  Registry.spec ->
  (t, string) result
(** Run the pipeline.  [~cache:false] (default [true]) bypasses the
    layout cache entirely — neither reading nor populating it, nor
    touching the counters (used by timing benches). *)

val run_string :
  ?validate:Check.mode ->
  ?report:bool ->
  ?cache:bool ->
  layers:int ->
  string ->
  (t, string) result
(** [run] on [Registry.parse]'s result. *)

val run_exn :
  ?validate:Check.mode -> ?report:bool -> ?cache:bool -> layers:int ->
  string -> t
(** [run_string], raising [Invalid_argument] on any error. *)

val layout_exn : ?cache:bool -> layers:int -> string -> Layout.t
(** Just the (cached) layout of a spec string. *)

(* --- validity ---------------------------------------------------------- *)

type validity = Valid | Invalid | Not_validated

val validity : t -> validity
(** Three-state view of the run's validation outcome: [Not_validated]
    when the run skipped validation — distinct from [Invalid]. *)

val violations : t -> Check.violation list option
(** The recorded violations; [None] when validation was not requested. *)

val is_valid : ?mode:Check.mode -> t -> bool
(** [true] iff the layout has no violations.  When the run skipped
    validation this checks the layout on demand under [mode] (default
    [Strict]) instead of conflating "not validated" with "invalid";
    when the run did validate, the recorded result is answered and
    [mode] is ignored. *)

val total_seconds : t -> float
(** The sum of the root spans' seconds. *)

val pp_timings : Format.formatter -> t -> unit
(** The span tree ({!Mvl_span.Span.pp}), then the total seconds. *)

val to_json : t -> Telemetry.json
(** The run as one stable-key-order record:
    [{schema, spec, family, n_nodes, n_edges, layers, from_cache,
    seconds {build,layout,validate,metrics,report,total}, spans [...],
    cache {hits,misses,coalesced,size}, metrics {...},
    violations {checked,...}, report}].  ["cache"] reports the
    process-wide counters at call time; ["violations"] is
    {!Telemetry.not_validated} when validation was skipped; ["report"]
    is [null] unless requested.  ["seconds"] reads each stage off its
    root span (0 for a stage not run); ["spans"] is
    {!Telemetry.of_spans} of [timings]. *)

(* --- cache ------------------------------------------------------------- *)

type cache_stats = { hits : int; misses : int; coalesced : int }
(** [misses] counts actual layout constructions through the cache;
    [coalesced] counts requests that joined another domain's
    in-progress build of the same key instead of duplicating it. *)

val cache_stats : unit -> cache_stats
val cache_size : unit -> int
(** Layouts currently resident (always [<= cache_capacity ()]). *)

val cache_capacity : unit -> int
val set_cache_capacity : int -> unit
(** Bound on resident entries of both the layout and the family cache
    (default 256), enforced by GDSF eviction at insertion; shrinking evicts immediately.  [0] disables caching.
    Counters are unaffected — a re-run of an evicted spec counts as a
    fresh miss. *)

val cache_resident_bytes : unit -> int
(** Total {!Layout.resident_bytes} over the resident layouts. *)

val cache_max_bytes : unit -> int
val set_cache_bytes : int -> unit
(** Byte budget for resident layouts (default effectively unbounded),
    enforced together with the entry capacity; shrinking evicts
    immediately. *)

val cache_policy_stats : unit -> Cache.stats
(** The layout cache's own policy counters (admissions, rejections,
    evictions, and its internal hit/miss tallies — the latter also
    count probes that went on to coalesce, so prefer {!cache_stats}
    for request accounting). *)

val cache_reset : unit -> unit
(** Drop all cached layouts and families and zero the counters (the
    capacity and byte-budget settings are kept). *)
