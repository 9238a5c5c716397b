(** Parallel runtime facade for embarrassingly parallel sweeps.

    Every sweep surface — [mvl sweep --jobs], [mvl validate --jobs],
    [bench emit --jobs] — evaluates one independent pipeline run per
    (spec, layers) point, so the runtime is a plain parallel [map] on a
    work-stealing {!Domain_pool} of OCaml 5 domains inside one process.
    Results come back by reference — no serialization — and every
    domain shares the one {!Pipeline} layout cache, so a layout built
    by any worker is a hit for all of them.  An exception from [f]
    propagates with its backtrace after the pool drains: the one from
    the lowest failing input index, as a sequential map would raise it.

    Results are merged in input order, independent of worker
    scheduling, so [--stable] output is byte-identical across job
    counts.  With one worker (or one job) the map is the plain
    sequential map in the calling domain. *)

type stats = {
  workers : int;  (** domains actually used (1 = the calling domain) *)
  hits : int;     (** layout-cache hits summed over all workers *)
  misses : int;   (** layout-cache misses summed over all workers *)
}

val cpu_count : unit -> int
(** Processors available to {e this} process:
    [Domain.recommended_domain_count ()], which respects cpuset /
    affinity limits in containers, falling back to counting
    [/proc/cpuinfo] processors when the probe reports a single CPU
    (indistinguishable from a failed probe). *)

val default_jobs : unit -> int
(** [cpu_count ()] — the default for the [--jobs] flags.  No longer
    capped: a domain costs no process start-up, so wide machines
    should use their width. *)

val map :
  ?jobs:int ->
  f:('a -> Telemetry.json) ->
  'a list ->
  Telemetry.json list * stats
(** [map ~jobs ~f xs] is [List.map f xs] evaluated on up to [jobs]
    domains (default {!default_jobs}; never more workers than jobs),
    plus the aggregated {!Pipeline} layout-cache counter deltas.
    Results are in input order. *)
