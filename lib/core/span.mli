(** The one profiling mechanism: a domain-local span recorder.

    {!collect} opens a collector on the calling domain; every
    {!with_} run inside it on that domain becomes a node of the
    returned forest, nested as the calls nest.  A node records wall
    seconds from the OS monotonic clock and the words the calling
    domain allocated (the [Gc] counters are domain-local in OCaml 5), so work
    a span hands to other domains is timed but its allocation is not
    counted.  Same-name siblings merge — [count] calls, summed values —
    so a loop of spans costs one node, not one per iteration.

    With no collector open on the calling domain, {!with_} is a plain
    call: a construction on a serve worker or a direct library call
    records nothing.  Spans opened inside [Domain_pool] tasks would land
    on whichever domain ran the task, so instrumented code keeps its
    spans on the calling domain, and the forest's names and nesting are
    then the same at every job count. *)

type t = private {
  name : string;
  mutable seconds : float;  (** wall seconds, summed over [count] calls *)
  mutable minor_words : float;  (** words allocated on the minor heap *)
  mutable major_words : float;
      (** words allocated directly on the major heap (promotions are
          not counted again) *)
  mutable count : int;  (** calls merged into this node *)
  mutable children : t list;  (** in first-call order *)
}
(** A recorded span.  The fields are written only while its collector
    is open; a forest {!collect} returns no longer changes. *)

val now : unit -> float
(** Seconds on the OS monotonic clock ([clock_gettime(CLOCK_MONOTONIC)]),
    from an arbitrary origin: only differences mean anything.  Unlike
    the wall clock it never jumps under NTP adjustment. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f ()] as a span named [name] under the
    innermost open span of the calling domain's collector.  The span
    closes when [f] returns or raises. *)

val collect : (unit -> 'a) -> 'a * t list
(** [collect f] runs [f ()] with a fresh collector on the calling domain
    and returns its result and the root spans it recorded, in
    first-call order.  An enclosing collector is suspended meanwhile
    and restored afterwards, also when [f] raises. *)

val pp : Format.formatter -> t list -> unit
(** One line per span, indented by depth:
    name, seconds, Mwords allocated (minor + major) and the call count
    when above one. *)

val peak_rss_kib : unit -> int
(** The process's peak resident set size (VmHWM of
    [/proc/self/status]) in KiB; 0 where [/proc] is unavailable. *)
