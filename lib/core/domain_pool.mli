(** Work-stealing OCaml 5 domain pool for coarse-grained parallel maps.

    The pool runs one worker per domain ([domains - 1] spawned domains
    plus the calling domain) over a fixed task set known up front — no
    task ever spawns another task, so a worker that finds every deque
    empty can retire immediately.

    Deque protocol: task indices are dealt round-robin into one deque
    per worker (worker [w] initially owns indices [w, w+D, w+2D, ...],
    a static partition, so ownership is reproducible); an owner pops
    from the {e front} of its own deque (ascending index order) and an
    idle worker steals from the {e back} of a victim's deque (the
    indices the owner would reach last), scanning victims round-robin
    from its own successor.  Each deque is
    guarded by its own mutex — tasks here are whole pipeline runs or
    verification shards, so the per-task locking cost is noise.

    Results are written into a shared slot array, one slot per index,
    each written by exactly one worker; [Domain.join] publishes every
    worker's writes before the caller reads them, so results pass by
    reference with no serialization of any kind.

    Determinism: output order is input order by construction, and the
    pool itself consumes no randomness.  Workloads that need per-task
    random streams should derive them from the task, not the worker —
    {!split_seed} gives a stream per (seed, index) pair so results
    cannot depend on which domain ran which task.

    Exceptions: a task that raises marks its slot; after every worker
    has been joined the exception from the {e lowest} failing index is
    re-raised (with its backtrace) in the caller — the same exception a
    sequential left-to-right map would have surfaced first, for
    deterministic [f]. *)

type stats = {
  domains : int;  (** workers that ran (including the calling domain) *)
  steals : int;   (** tasks executed by a worker that did not own them *)
}

val map : ?domains:int -> f:('a -> 'b) -> 'a array -> 'b array * stats
(** [map ~domains ~f items] is [Array.map f items] evaluated on
    [domains] workers (default {!Domain.recommended_domain_count}, and
    never more workers than items).  [domains <= 1] or fewer than two
    items degrade to a plain sequential map in the calling domain.
    [f] must be safe to call from multiple domains at once. *)

val gang : workers:int -> ?abort:(unit -> unit) -> (int -> unit) -> unit
(** [gang ~workers f] runs [f 0 .. f (workers - 1)] with every worker on
    its own domain, concurrently ([workers - 1] spawned domains plus the
    calling domain as worker 0), and joins them all.  Use this — never
    {!map} — for tasks that synchronize with each other (e.g. through
    {!Barrier.wait}): a stealing pool may schedule two lockstep tasks on
    one domain, which deadlocks at their first rendezvous.

    [workers = 1] calls [f 0] inline without spawning anything.

    If a worker raises, [abort] (typically [fun () -> Barrier.break b])
    is invoked exactly once so gang-mates blocked on a rendezvous wake
    up and fail too; after all workers are joined the exception from the
    lowest-index worker whose failure is not a {!Barrier.Broken} echo is
    re-raised with its backtrace. *)

val split_seed : seed:int -> index:int -> int
(** A deterministic per-task seed: a splitmix64-style finalizer over
    [seed] and [index].  Two distinct [(seed, index)] pairs give
    unrelated streams, and the result never depends on scheduling, so
    seeding [Rng.create] with it keeps domain-parallel runs
    byte-identical to sequential ones. *)
