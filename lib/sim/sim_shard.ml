(* Shard-count policy and router partition shared by both sharded
   simulator engines.

   The contiguous even partition [w*n/S, (w+1)*n/S) is load-balanced to
   within one router and — because shard ranges ascend with the shard
   index — concatenating per-shard event streams in ascending shard
   order reproduces the serial engine's global ascending-router order.
   That identity is what makes the phase-2 mailbox drain deterministic
   and byte-identical to serial (DESIGN.md §11). *)

let shards ~jobs ~n =
  match jobs with
  | None -> 1
  | Some j -> if j <= 1 then 1 else min j (max 1 n)

let bounds ~n ~shards w = ((w * n) / shards, ((w + 1) * n) / shards)

let owner_table ~n ~shards =
  let t = Array.make n 0 in
  for w = 0 to shards - 1 do
    let lo, hi = bounds ~n ~shards w in
    for u = lo to hi - 1 do
      t.(u) <- w
    done
  done;
  t
