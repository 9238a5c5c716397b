(** Cost- and size-aware bounded cache: GreedyDual-Size-Frequency
    (GDSF) admission/eviction over a hash table.

    Plain FIFO eviction treats a layout that took seconds to build
    exactly like one that took microseconds, so a sweep over cheap
    specs flushes the expensive residents the next client is about to
    ask for.  GDSF ranks every entry by

    {v priority = clock + frequency * cost / size v}

    where [cost] is the measured build time (seconds), [size] the
    resident bytes, [frequency] the access count since admission, and
    [clock] an aging term set to the priority of the last evicted entry
    — so an entry that stops being touched eventually ages below fresh
    arrivals no matter how expensive it was.  Eviction removes the
    minimum-priority entry (ties broken oldest-insertion-first, so the
    order is deterministic and unit-testable).

    The cache is bounded two ways: a maximum entry count and a maximum
    byte budget (sum of entry sizes).  {!add} admits the candidate,
    then evicts minimum-priority entries until both bounds hold; when
    the candidate itself is the minimum it is the one evicted — i.e.
    the admission policy rejected it — and {!add} returns [false].
    A candidate larger than the whole byte budget is rejected outright
    without disturbing residents.

    Not synchronized: callers that share a cache across domains must
    serialize access (as {!Pipeline} does behind its cache lock).  The
    monotonically increasing stats counters are plain ints read and
    written under the same external lock. *)

type ('k, 'v) t

type stats = {
  hits : int;        (** {!find_opt} found the key resident *)
  misses : int;      (** {!find_opt} came up empty *)
  admissions : int;  (** {!add} left the key resident *)
  rejections : int;  (** {!add} did not (candidate was the victim) *)
  evictions : int;   (** residents removed to make room (not candidates) *)
}

val create : ?max_bytes:int -> capacity:int -> unit -> ('k, 'v) t
(** Structural key equality/hashing.  [capacity <= 0] disables the
    cache ({!add} rejects everything, lookups miss).  [max_bytes]
    defaults to [max_int] (entry count is the only bound). *)

val capacity : ('k, 'v) t -> int
val set_capacity : ('k, 'v) t -> int -> unit
(** Clamped at 0.  Shrinking evicts minimum-priority entries
    immediately. *)

val max_bytes : ('k, 'v) t -> int
val set_max_bytes : ('k, 'v) t -> int -> unit
(** Clamped at 0.  Shrinking evicts immediately. *)

val length : ('k, 'v) t -> int
val resident_bytes : ('k, 'v) t -> int
(** Sum of the resident entries' sizes ([<= max_bytes t]). *)

val mem : ('k, 'v) t -> 'k -> bool
(** Residence test; does not touch frequency or the counters. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** A hit bumps the entry's frequency and re-ranks it
    ([clock + freq * cost / size]); both outcomes move the stats. *)

val add : ('k, 'v) t -> 'k -> 'v -> cost:float -> size:int -> bool
(** Insert or update; [true] iff the key is resident afterwards.
    [cost] is clamped below at a small positive epsilon and [size] at
    [1] so degenerate measurements cannot produce NaN or infinite
    priorities.  Re-adding a resident key updates its value, cost and
    size in place (frequency and insertion order are kept) and then
    re-enforces the byte bound.  Rejected candidates leave residents
    untouched except for evictions their admission attempt forced. *)

val remove : ('k, 'v) t -> 'k -> unit

val victim : ('k, 'v) t -> 'k option
(** The entry the next eviction would remove: minimum priority, ties
    oldest-first.  [None] when empty. *)

val priority : ('k, 'v) t -> 'k -> float option
(** Current GDSF priority of a resident key (for tests and debugging). *)

val clock : ('k, 'v) t -> float
(** The aging term: the priority of the most recently evicted or
    rejected entry (0 initially, monotonically non-decreasing). *)

val stats : ('k, 'v) t -> stats
val reset_stats : ('k, 'v) t -> unit

val clear : ('k, 'v) t -> unit
(** Drop every entry (bounds and stats are kept). *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
