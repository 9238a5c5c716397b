type t = { lo : int; hi : int }

let make a b = if a <= b then { lo = a; hi = b } else { lo = b; hi = a }
let length i = i.hi - i.lo
let contains i x = i.lo <= x && x <= i.hi

let overlap_interior a b =
  (* closed intervals share an interior point iff the larger lo lies
     below the smaller hi *)
  Int.max a.lo b.lo < Int.min a.hi b.hi

let touches a b = Int.max a.lo b.lo <= Int.min a.hi b.hi
let hull a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }
let pp ppf i = Format.fprintf ppf "[%d,%d]" i.lo i.hi
