(** Shard-count policy and router partition for the domain-sharded
    simulator engines ({!Network_sim.run} / {!Wormhole.run} with
    [~jobs]). *)

val shards : jobs:int option -> n:int -> int
(** Effective shard count for a [~jobs] request on [n] routers: [1]
    (the serial path — no domain is spawned) when [jobs] is absent or
    [<= 1]; otherwise [min jobs n]. *)

val bounds : n:int -> shards:int -> int -> int * int
(** [bounds ~n ~shards w] is the half-open router range [(lo, hi)] owned
    by shard [w]: the contiguous even partition [w*n/S, (w+1)*n/S).
    Ranges ascend with [w], so ascending-shard concatenation of
    per-shard event streams equals the serial engine's global
    ascending-router order. *)

val owner_table : n:int -> shards:int -> int array
(** [owner_table ~n ~shards] maps each router to its owning shard. *)
