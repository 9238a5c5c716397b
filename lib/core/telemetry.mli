(** Structured telemetry: a dependency-free JSON tree, an encoder whose
    output is stable (fixed key order, deterministic number formatting),
    a strict parser (for round-trip tests and output self-checks), and
    typed emitters for the library's measurement records.

    Every machine-readable surface of the repository — [mvl ... --json],
    [bench emit]'s [BENCH_pipeline.json], serialized validation results —
    goes through this module, so the schema evolves in exactly one
    place. *)

open Mvl_layout

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list  (** key order is preserved verbatim *)

(* --- encoding ---------------------------------------------------------- *)

val to_string : ?pretty:bool -> json -> string
(** Compact by default ([{"a":1,"b":[2,3]}]); [~pretty:true] indents
    with two spaces.  Strings are escaped per RFC 8259 (including
    control characters as [\u00XX]); non-finite floats encode as
    [null]; finite floats always carry a fractional part or exponent so
    they re-parse as [Float]. *)

val pp : Format.formatter -> json -> unit
(** [to_string ~pretty:true] on a formatter. *)

(* --- parsing ----------------------------------------------------------- *)

val parse : string -> (json, string) result
(** Strict RFC 8259 parser over the whole input (trailing garbage is an
    error).  Numbers with a fraction or exponent parse as [Float],
    others as [Int].  [\uXXXX] escapes (including surrogate pairs)
    decode to UTF-8.  Errors name the byte offset. *)

(* --- accessors --------------------------------------------------------- *)

val member : string -> json -> json option
(** Field of an [Obj]; [None] on missing fields and non-objects. *)

val keys : json -> string list
(** Key list of an [Obj] in order; [[]] on non-objects. *)

val strip_volatile : json -> json
(** Recursively drop the fields whose values legitimately differ
    between two otherwise identical runs: every ["seconds"] object
    (wall-clock stage timings), every ["spans"] list (the
    {!Mvl_span.Span} forest: wall times and words), every ["cache"] object
    (cumulative per-process hit/miss counters) and every ["from_cache"]
    flag (whether this particular run hit the cache).  What remains is
    a deterministic function of the inputs — the form the [--jobs]
    determinism tests, [bench emit --stable] and the serve daemon's
    byte-identity contract compare byte-for-byte. *)

(* --- typed emitters ---------------------------------------------------- *)

val of_spans : Mvl_span.Span.t list -> json
(** A span forest as
    [[{"name","seconds","minor_words","major_words","count","children"}]],
    children nested the same way, in first-call order. *)

val of_metrics : Layout.metrics -> json
(** [{"width","height","area","layers","volume","max_wire",
    "total_wire","vias"}] — the §2.2 cost measures. *)

val violation_summary : Check.result -> json
(** [{"checked":true,"mode","count","truncated","rules"}] where
    ["rules"] maps each violated rule name to its count (keys sorted).
    This is the summary embedded in pipeline/bench records. *)

val not_validated : json
(** [{"checked":false}] — the summary when validation was not run. *)

val of_check : Check.result -> json
(** [violation_summary] plus the full ["violations"] detail list
    ([{"rule","detail"}] per entry) — used by [mvl validate --json]. *)

val of_sim : Mvl_sim.Network_sim.result -> json
(** The packet-simulation measurement record: counts, latency
    percentiles, throughput, hops, cycles, and the full
    [latency_histogram] as [[latency, count]] pairs.  Embedded under
    ["sim"] by [mvl sim --json] ([mvl.sim.run/1]) and per grid point by
    [bench throughput] ([mvl.bench.sim/1]). *)

val of_report : Report.t -> json
(** The layout-anatomy report: node area share, wire-length
    distribution, per-layer run lengths, via count. *)
