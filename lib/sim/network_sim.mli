(** A cycle-driven interconnection-network simulator with layout-derived
    link latencies.

    Model: single-flit packets, oblivious minimal routing
    ({!Routing_table}), one shared FIFO per router with per-output
    crossbar arbitration (one grant per output port per cycle, router
    lookahead bounded), and pipelined links — a packet granted output
    [u -> v] at cycle [c] arrives at [v] at [c + link_latency u v].

    The link latency hook is where the paper's geometry enters: feeding
    wire lengths from a realized layout makes an [L]-layer network
    measurably faster than its 2-layer twin at identical topology. *)

open Mvl_topology

type config = {
  traffic : Traffic.t;
  offered_load : float;   (** injection probability per node per cycle *)
  warmup : int;           (** cycles before measurement starts *)
  measure : int;          (** cycles during which injections are tracked *)
  drain : int;            (** extra cycles to let tracked packets finish *)
  seed : int;
  lookahead : int;        (** how deep the router scans its queue *)
}

val default_config : config
(** uniform traffic, load 0.1, warmup 500, measure 2000, drain 5000,
    seed 1, lookahead 8. *)

type result = {
  injected : int;         (** tracked packets injected *)
  delivered : int;        (** tracked packets delivered *)
  hop_total : int;        (** hops summed over delivered tracked packets *)
  avg_latency : float;    (** cycles, over delivered tracked packets *)
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  throughput : float;     (** delivered / (nodes * measure) *)
  avg_hops : float;
  cycles : int;           (** simulated cycles until the run stopped *)
  undrained : int;
      (** tracked packets still in the network when the run stopped —
          nonzero only when the [warmup+measure+drain] horizon expired
          before the network drained (always [injected - delivered]);
          these packets used to vanish from the stats silently *)
  latency_histogram : (int * int) array;
      (** [(latency, delivered count)] in ascending latency order — the
          full delivered-latency distribution the percentiles are read
          from *)
}

val pp_result : Format.formatter -> result -> unit

val run :
  ?config:config ->
  ?link_latency:(int -> int -> int) ->
  ?jobs:int ->
  Graph.t ->
  result
(** [run graph] simulates the network.  [link_latency u v] is in cycles
    (default 1 everywhere); it must be symmetric and >= 1 — and, when
    [jobs > 1], callable from multiple domains at once (pure functions
    and {!link_latency_of_layout} closures qualify).

    [jobs] shards the routers across that many domains (capped at the
    node count) advancing in barrier-phased lockstep; the result is
    byte-identical to the serial engine for every [jobs] value — same
    counts, percentiles and histogram, enforced by the parity tests.
    Omitted or [<= 1], the serial engine runs and no domain is
    spawned. *)

val link_latency_of_layout :
  ?units_per_cycle:int -> Mvl_layout.Layout.t -> int -> int -> int
(** Latency hook derived from a realized layout: [1 + len(u,v) /
    units_per_cycle] cycles (default 64 grid units per cycle). *)

val saturation_throughput :
  ?config:config -> ?link_latency:(int -> int -> int) -> Graph.t -> float
(** Delivered throughput (packets/node/cycle) under saturating injection
    (offered load 0.95): the network's capacity limit, bounded above by
    [2 B / N] for bisection width [B] under uniform traffic. *)

val zero_load_latency :
  ?samples:int ->
  ?link_latency:(int -> int -> int) ->
  Graph.t ->
  float
(** Mean uncontended packet latency over sampled source/destination
    pairs (hops + link latencies along the routed path). *)
