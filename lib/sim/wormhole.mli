(** Flit-level wormhole simulation with virtual channels and credit
    flow control — the classic Dally router model, complementing the
    packet-level {!Network_sim}.

    Supported fabrics: binary hypercubes and [k]-ary [n]-cubes with
    deterministic e-cube (dimension-order) routing; tori use the
    dateline virtual-channel scheme (packets switch from VC 0 to VC 1
    after crossing a ring's wrap link), which makes the routing
    provably deadlock-free.  Links are pipelined with configurable
    latency (feed {!Network_sim.link_latency_of_layout} to tie
    performance to a realized layout); credits return with the same
    latency. *)

type fabric =
  | Hypercube of int            (** dimensions *)
  | Torus of { k : int; n : int }

type routing =
  | Deterministic
      (** pure e-cube: every hop follows dimension order *)
  | Adaptive
      (** Duato minimal-adaptive: any productive hop on the adaptive
          VCs, with the e-cube channels as the deadlock-free escape
          sub-network.  Hypercubes need [vcs >= 2]; tori [vcs >= 3]
          (two escape dateline classes + adaptive). *)

type config = {
  packet_len : int;      (** flits per packet, >= 1 *)
  vcs : int;             (** virtual channels per link (>= 2 for tori) *)
  buffer_depth : int;    (** flits of buffering per VC *)
  routing : routing;
  traffic : Traffic.t;
  offered_load : float;  (** packet injection probability/node/cycle *)
  warmup : int;
  measure : int;
  drain : int;
  seed : int;
}

val default_config : config
(** 4-flit packets, 2 VCs, depth 4, deterministic routing, uniform
    traffic, load 0.02. *)

type result = {
  injected : int;
  delivered : int;
  avg_latency : float;   (** head injection to tail ejection, cycles *)
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  throughput : float;    (** delivered packets / (nodes * measure) *)
  undrained : int;
      (** tracked packets still in the network at the horizon (always
          [injected - delivered]); these used to vanish from the stats
          silently *)
  latency_histogram : (int * int) array;
      (** [(latency, count)] in ascending latency order *)
}

val pp_result : Format.formatter -> result -> unit

val run :
  ?config:config ->
  ?link_latency:(int -> int -> int) ->
  ?jobs:int ->
  fabric ->
  result
(** Simulates the fabric; raises [Invalid_argument] for a torus with
    fewer than 2 VCs.

    [jobs] shards the routers across that many domains (capped at the
    node count) in barrier-phased lockstep, byte-identical to the
    serial engine for every value — see {!Network_sim.run}; omitted or
    [<= 1], the serial engine runs and no domain is spawned.  A [link_latency] used with [jobs > 1] must be
    callable from multiple domains at once. *)

val graph_of_fabric : fabric -> Mvl_topology.Graph.t
