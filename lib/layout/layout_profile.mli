(** Wall-clock phase accounting for layout construction.

    The accumulator is domain-local: {!reset} before a construction,
    {!snapshot} after, on the same domain.  Construction code
    ({!Orthogonal.create}, {!Multilayer.realize_general}) adds into it
    unconditionally from the calling domain — the cost is one clock
    read per phase, not per edge — so concurrent constructions on
    different domains (serve workers, [Parallel.map]) never sum into
    each other.  Place and pack run inside a family's construction
    ({!Orthogonal.of_product}), terminals/emit/build when a layer count
    is realized, so a caller that wants every phase resets before the
    family build. *)

type phase = Place | Pack | Terminals | Emit | Build

type phases = {
  place_seconds : float;      (** placement, edge classification, CSR fill *)
  pack_seconds : float;       (** per-line greedy track assignment *)
  terminals_seconds : float;  (** incidence sort + terminal coordinates *)
  emit_seconds : float;       (** wire point emission into shard buffers *)
  build_seconds : float;      (** shard merge into columnar [Geom.t] *)
}

val reset : unit -> unit
val record : phase -> float -> unit
val timed : phase -> (unit -> 'a) -> 'a
val snapshot : unit -> phases
