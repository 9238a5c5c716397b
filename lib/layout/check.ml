open Mvl_geometry
open Mvl_topology

type mode = Strict | Thompson

type violation = { rule : string; detail : string }

type result = { mode : mode; violations : violation list; truncated : bool }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.rule v.detail

let mode_name = function Strict -> "strict" | Thompson -> "thompson"

type collector = {
  mutable violations : violation list;
  mutable count : int;
  limit : int;
}

let report c rule fmt =
  Format.kasprintf
    (fun detail ->
      if c.count < c.limit then begin
        c.violations <- { rule; detail } :: c.violations;
        c.count <- c.count + 1
      end)
    fmt

let overfull c = c.count >= c.limit

(* --- indexes ------------------------------------------------------- *)

(* Struct-of-arrays segment indexes read straight out of the layout's
   Geom columns: one parallel-array entry per segment, sorted by
   (k1, k2, lo) with ties in generation order, so a (k1, k2) group is a
   contiguous slice and entries within a group are already in
   ascending-lo sweep order.  No Segment or Point record is ever
   allocated — classification happens on the raw coordinate columns and
   every pass below walks flat int arrays in order, merging sorted
   sequences with forward cursors rather than searching per probe. *)
type runs = {
  n : int;
  k1 : int array;
  k2 : int array;
  lo : int array;
  hi : int array;
  wire : int array;
}
(* every segment extremity is a polyline vertex where the wire bends or
   terminates, so for Thompson-mode crossings only strict interior
   points are free *)

(* first index in [l0, r0) with a.(i) >= v (resp. > v): direct int-array
   binary searches — monomorphic loads, no closure per probe *)
let lb_ge (a : int array) l0 r0 v =
  let l = ref l0 and r = ref r0 in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if a.(m) < v then l := m + 1 else r := m
  done;
  !l

let lb_gt (a : int array) l0 r0 v =
  let l = ref l0 and r = ref r0 in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if a.(m) <= v then l := m + 1 else r := m
  done;
  !l

(* distinct k1 values of a sorted [runs] with their slice boundaries, so
   (k1, k2) group lookups narrow to a k1 bucket first and then search on
   k2 alone — one array read per probe instead of two *)
type zindex = { zs : int array; bstart : int array (* length zs+1 *) }

let zindex_of (r : runs) =
  let nz = ref 0 in
  for i = 0 to r.n - 1 do
    if i = 0 || r.k1.(i) <> r.k1.(i - 1) then incr nz
  done;
  let zs = Array.make (Int.max 1 !nz) 0 in
  let bstart = Array.make (!nz + 1) r.n in
  let j = ref 0 in
  for i = 0 to r.n - 1 do
    if i = 0 || r.k1.(i) <> r.k1.(i - 1) then begin
      zs.(!j) <- r.k1.(i);
      bstart.(!j) <- i;
      incr j
    end
  done;
  { zs; bstart }

(* the k1 bucket as (start, stop), or (0, 0) when k1 is absent *)
let zbucket zi k1 =
  let nz = Array.length zi.bstart - 1 in
  let p = lb_ge zi.zs 0 nz k1 in
  if p < nz && zi.zs.(p) = k1 then (zi.bstart.(p), zi.bstart.(p + 1))
  else (0, 0)

type indexes = {
  h_runs : runs; (* k1 = z, k2 = y, lo/hi = x span *)
  v_runs : runs; (* k1 = z, k2 = x, lo/hi = y span *)
  vias : runs; (* k1 = x, k2 = y, lo/hi = z span *)
  h_z : zindex;
  v_z : zindex;
}

(* least and greatest of a.(0 .. n-1) *)
let range (a : int array) n =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    if a.(i) < !lo then lo := a.(i);
    if a.(i) > !hi then hi := a.(i)
  done;
  (!lo, !hi)

let bits_for range =
  let b = ref 0 in
  while range lsr !b > 0 do
    incr b
  done;
  !b

(* Stable LSD radix sort of non-negative packed keys on their bits
   [from, nbits), using [scratch] (as long as [keys]) as the second
   buffer.  The sorted keys end up in one of the two, and the other is
   left free for the caller.  [carry] = (words, words_scratch) moves one
   word per key along with it, ping-ponging the same way: the sorted
   words are in [words] iff the sorted keys are in [keys].  Callers
   pack the entry index into the low [from] bits, or carry what they
   need, and stability keeps equal keys in input order.  Digits are at
   most 11 bits wide, spread evenly over the passes: small enough that
   the count table and the scatter's write fronts stay cache-resident,
   and packed keys make the digit extraction one shift+mask. *)
let radix_sort ?carry keys ~scratch ~from nbits =
  let n = Array.length keys in
  let passes = (nbits - from + 10) / 11 in
  let src = ref keys and dst = ref scratch in
  let carrying, words, words_scratch =
    match carry with
    | Some (w, ws) -> (true, w, ws)
    | None -> (false, [||], [||])
  in
  let wsrc = ref words and wdst = ref words_scratch in
  if passes > 0 then begin
    let digit = (nbits - from + passes - 1) / passes in
    let mask = (1 lsl digit) - 1 in
    let count = Array.make (mask + 1) 0 in
    let shift = ref from in
    for _ = 1 to passes do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to n - 1 do
        let c = (s.(i) lsr sh) land mask in
        count.(c) <- count.(c) + 1
      done;
      let sum = ref 0 in
      for c = 0 to mask do
        let k = count.(c) in
        count.(c) <- !sum;
        sum := !sum + k
      done;
      if not carrying then
        for i = 0 to n - 1 do
          let k = s.(i) in
          let c = (k lsr sh) land mask in
          d.(count.(c)) <- k;
          count.(c) <- count.(c) + 1
        done
      else begin
        let ws = !wsrc and wd = !wdst in
        for i = 0 to n - 1 do
          let k = s.(i) in
          let c = (k lsr sh) land mask in
          let j = count.(c) in
          d.(j) <- k;
          wd.(j) <- ws.(i);
          count.(c) <- j + 1
        done;
        wsrc := wd;
        wdst := ws
      end;
      src := d;
      dst := s;
      shift := sh + digit
    done
  end;
  !src

(* Call [h], [v] or [z] with (k1, k2, lo, hi, wire) for every
   horizontal run, vertical run or via, in generation order. *)
let iter_segments (g : Geom.t) h v z =
  let px = g.Geom.px and py = g.Geom.py and pz = g.Geom.pz in
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 2 do
      let xa = px.{k} and ya = py.{k} and za = pz.{k} in
      let xb = px.{k + 1} and yb = py.{k + 1} and zb = pz.{k + 1} in
      if xb <> xa then h za ya (Int.min xa xb) (Int.max xa xb) i
      else if yb <> ya then v za xa (Int.min ya yb) (Int.max ya yb) i
      else z xa ya (Int.min za zb) (Int.max za zb) i
    done
  done

(* One run class being built: its key ranges, gathered by a counting
   pass, then its entries packed as they are generated — (k1, k2, lo)
   into one sort key and (wire, hi) into one word. *)
type fill = {
  mutable m : int;
  mutable k1_0 : int;
  mutable k1_1 : int;
  mutable k2_0 : int;
  mutable k2_1 : int;
  mutable lo_0 : int;
  mutable lo_1 : int;
  mutable hi_0 : int;
  mutable hi_1 : int;
  mutable keys : int array;
  mutable words : int array;
}

let new_fill () =
  {
    m = 0;
    k1_0 = max_int;
    k1_1 = min_int;
    k2_0 = max_int;
    k2_1 = min_int;
    lo_0 = max_int;
    lo_1 = min_int;
    hi_0 = max_int;
    hi_1 = min_int;
    keys = [||];
    words = [||];
  }

let note f k1 k2 lo hi (_ : int) =
  f.m <- f.m + 1;
  if k1 < f.k1_0 then f.k1_0 <- k1;
  if k1 > f.k1_1 then f.k1_1 <- k1;
  if k2 < f.k2_0 then f.k2_0 <- k2;
  if k2 > f.k2_1 then f.k2_1 <- k2;
  if lo < f.lo_0 then f.lo_0 <- lo;
  if lo > f.lo_1 then f.lo_1 <- lo;
  if hi < f.hi_0 then f.hi_0 <- hi;
  if hi > f.hi_1 then f.hi_1 <- hi

let bk2 f = bits_for (f.k2_1 - f.k2_0)
let blo f = bits_for (f.lo_1 - f.lo_0)
let bhi f = bits_for (f.hi_1 - f.hi_0)
let key_bits f = bits_for (f.k1_1 - f.k1_0) + bk2 f + blo f

let push f ~bk2 ~blo ~bhi k1 k2 lo hi wire =
  let j = f.m in
  f.keys.(j) <-
    ((((k1 - f.k1_0) lsl bk2) lor (k2 - f.k2_0)) lsl blo) lor (lo - f.lo_0);
  f.words.(j) <- (wire lsl bhi) lor (hi - f.hi_0);
  f.m <- j + 1

(* Sort a packed class by its key, stably, carrying the words through
   the radix passes, then decode all five fields in streaming order —
   gathering fields through the permutation instead costs a cache and
   TLB miss per entry at 10^6 runs.  The four sort buffers take four of
   the decoded fields and k1 gets one new column, so the runs cost 5
   words per entry in all. *)
let sort_fill f =
  let n = f.m and bk2 = bk2 f and blo = blo f and bhi = bhi f in
  let ks = Array.make n 0 and ws = Array.make n 0 in
  let sorted =
    radix_sort f.keys ~scratch:ks ~carry:(f.words, ws) ~from:0 (key_bits f)
  in
  let in_keys = sorted == f.keys in
  let kfree = if in_keys then ks else f.keys
  and words = if in_keys then f.words else ws
  and wfree = if in_keys then ws else f.words in
  let k1 = Array.make n 0 in
  let mlo = (1 lsl blo) - 1 and mk2 = (1 lsl bk2) - 1 and mhi = (1 lsl bhi) - 1 in
  for j = 0 to n - 1 do
    let k = sorted.(j) and w = words.(j) in
    k1.(j) <- (k lsr (blo + bk2)) + f.k1_0;
    kfree.(j) <- ((k lsr blo) land mk2) + f.k2_0;
    sorted.(j) <- (k land mlo) + f.lo_0;
    wfree.(j) <- (w land mhi) + f.hi_0;
    words.(j) <- w lsr bhi
  done;
  { n; k1; k2 = kfree; lo = sorted; hi = wfree; wire = words }

(* The comparator fallback, for key ranges too wide to pack: the same
   stable (k1, k2, lo) order over plain columns. *)
let sort_columns (g : Geom.t) sel n =
  let k1 = Array.make n 0 and k2 = Array.make n 0 and lo = Array.make n 0 in
  let hi = Array.make n 0 and wire = Array.make n 0 in
  let j = ref 0 in
  let put a b l h w =
    k1.(!j) <- a;
    k2.(!j) <- b;
    lo.(!j) <- l;
    hi.(!j) <- h;
    wire.(!j) <- w;
    incr j
  in
  let skip _ _ _ _ _ = () in
  (match sel with
  | `H -> iter_segments g put skip skip
  | `V -> iter_segments g skip put skip
  | `Z -> iter_segments g skip skip put);
  let idx = Array.init n (fun i -> i) in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare k1.(a) k1.(b) in
      if c <> 0 then c
      else
        let c = Int.compare k2.(a) k2.(b) in
        if c <> 0 then c else Int.compare lo.(a) lo.(b))
    idx;
  let permute a = Array.map (fun i -> a.(i)) idx in
  {
    n;
    k1 = permute k1;
    k2 = permute k2;
    lo = permute lo;
    hi = permute hi;
    wire = permute wire;
  }

(* Classify every segment off the point columns, then sort each class
   by (k1, k2, lo), stably, so entries of one wire stay in generation
   order; cross-wire ties only occur on already-overlapping (invalid)
   geometry, where report order is not specified.  Fast path: a
   counting pass gathers each class's key ranges, and when (k1, k2, lo)
   fits one int and (wire, hi) another the fill pass writes only those
   two words per entry. *)
let build_indexes (g : Geom.t) =
  let fh = new_fill () and fv = new_fill () and fz = new_fill () in
  iter_segments g (note fh) (note fv) (note fz);
  let bw = bits_for (g.Geom.n_wires - 1) in
  let packs f = key_bits f <= 62 && bw + bhi f <= 62 in
  let h, v, z =
    if packs fh && packs fv && packs fz then begin
      let start f =
        let n = f.m in
        f.keys <- Array.make n 0;
        f.words <- Array.make n 0;
        f.m <- 0;
        push f ~bk2:(bk2 f) ~blo:(blo f) ~bhi:(bhi f)
      in
      iter_segments g (start fh) (start fv) (start fz);
      (sort_fill fh, sort_fill fv, sort_fill fz)
    end
    else (sort_columns g `H fh.m, sort_columns g `V fv.m, sort_columns g `Z fz.m)
  in
  { h_runs = h; v_runs = v; vias = z; h_z = zindex_of h; v_z = zindex_of v }

(* call [f start stop] for every maximal same-(k1, k2) slice inside
   [from, upto) — [from]/[upto] must sit on group boundaries, which
   every zindex bucket boundary does *)
let iter_groups_in (r : runs) ~from ~upto f =
  let i = ref from in
  while !i < upto do
    let s = !i in
    let k1 = r.k1.(s) and k2 = r.k2.(s) in
    let j = ref (s + 1) in
    while !j < upto && r.k1.(!j) = k1 && r.k2.(!j) = k2 do
      incr j
    done;
    f s !j;
    i := !j
  done

let iter_groups (r : runs) f = iter_groups_in r ~from:0 ~upto:r.n f

(* --- collinear (same line) overlap checks -------------------------- *)

type line_kind = Horizontal | Vertical | Via_stack

(* entry [i] of [r] against an earlier entry of its line reaching
   [prev_hi], owned by [prev_wire] *)
let clash c line (r : runs) i prev_hi prev_wire =
  let b_wire = r.wire.(i) and b_lo = r.lo.(i) in
  if prev_wire >= 0 && prev_wire <> b_wire && prev_hi >= b_lo then
    match line with
    | Via_stack ->
        report c "via-overlap" "vias of wires %d and %d collide at (%d,%d)"
          prev_wire b_wire r.k1.(i) r.k2.(i)
    | Horizontal | Vertical ->
        report c "overlap" "%s runs of wires %d and %d share x/y=%d.."
          (if line = Horizontal then "horizontal" else "vertical")
          prev_wire b_wire b_lo

let check_collinear c line (r : runs) start stop =
  (* the group is already sorted by lo; sweep keeping the
     farthest-reaching span seen so far, plus the farthest-reaching one
     owned by a different wire, so containment chains are caught too —
     also for the vias stacked at one (x, y), whose spans are in z *)
  let hi1 = ref min_int and wire1 = ref (-1) in
  let hi2 = ref min_int and wire2 = ref (-1) in
  for i = start to stop - 1 do
    let b_hi = r.hi.(i) and b_wire = r.wire.(i) in
    clash c line r i !hi1 !wire1;
    if !wire2 <> !wire1 then clash c line r i !hi2 !wire2;
    (* update the two leaders *)
    if b_hi >= !hi1 then begin
      if b_wire <> !wire1 then begin
        hi2 := !hi1;
        wire2 := !wire1
      end;
      hi1 := b_hi;
      wire1 := b_wire
    end
    else if b_wire <> !wire1 && b_hi > !hi2 then begin
      hi2 := b_hi;
      wire2 := b_wire
    end
  done

(* --- crossing checks (H vs V on one layer) ------------------------- *)

(* For each vertical run, binary search the band of horizontal lines
   with y inside its span (same layer) and test x containment.  In the
   multilayer grid model any shared point is illegal; under Thompson a
   crossing is legal iff it is interior to both runs. *)
let check_crossings_in c ~mode (idx : indexes) ~from ~upto =
  let h = idx.h_runs and v = idx.v_runs in
  for vi = from to upto - 1 do
    if not (overfull c) then begin
      let z = v.k1.(vi) and x = v.k2.(vi) in
      let v_lo = v.lo.(vi) and v_hi = v.hi.(vi) and v_wire = v.wire.(vi) in
      let bs, be = zbucket idx.h_z z in
      let start = lb_ge h.k2 bs be v_lo in
      let i = ref start in
      while !i < be && h.k2.(!i) <= v_hi do
        let j = !i in
        if h.wire.(j) <> v_wire && h.lo.(j) <= x && x <= h.hi.(j) then begin
          let y = h.k2.(j) in
          let interior_h = h.lo.(j) < x && x < h.hi.(j) in
          let interior_v = v_lo < y && y < v_hi in
          let ok =
            match mode with
            | Strict -> false
            | Thompson -> interior_h && interior_v
          in
          if not ok then
            report c "crossing" "wires %d and %d meet at (%d,%d,z=%d)"
              h.wire.(j) v_wire x y z
        end;
        incr i
      done
    end
  done

let check_crossings c ~mode (idx : indexes) =
  check_crossings_in c ~mode idx ~from:0 ~upto:idx.v_runs.n

(* --- via checks ----------------------------------------------------- *)

(* [reach.(i)] = the largest [hi] over entries [group start .. i] of
   i's (k1, k2) group, so some run at or before [i] on the line covers
   a point [at >= lo.(i)] iff [reach.(i) >= at] *)
let group_reach (r : runs) =
  let reach = Array.make (Int.max 1 r.n) min_int in
  for i = 0 to r.n - 1 do
    let h = r.hi.(i) in
    reach.(i) <-
      (if
         i > 0
         && r.k1.(i) = r.k1.(i - 1)
         && r.k2.(i) = r.k2.(i - 1)
         && reach.(i - 1) > h
       then reach.(i - 1)
       else h)
  done;
  reach

(* One merge step of a via against the runs of layer bucket [b]:
   advance the bucket's cursor past every run with (line, lo) <=
   (line, at), then walk back over runs of the same line while their
   reach still covers [at].  The walk meets every run containing [at]
   — also one that starts before a shorter run of the same line, as a
   wire doubling back on its own track produces — and on valid
   geometry stops after one or two entries. *)
let pierce_step c (r : runs) reach (zi : zindex) cur b ~line ~at ~via_wire x y
    =
  let e = zi.bstart.(b + 1) in
  let p = ref cur.(b) in
  while !p < e && (r.k2.(!p) < line || (r.k2.(!p) = line && r.lo.(!p) <= at))
  do
    incr p
  done;
  cur.(b) <- !p;
  let s = zi.bstart.(b) in
  let q = ref (!p - 1) in
  while !q >= s && r.k2.(!q) = line && reach.(!q) >= at do
    let j = !q in
    if r.hi.(j) >= at && r.wire.(j) <> via_wire then
      report c "via-run" "via of wire %d pierces run of wire %d at (%d,%d,%d)"
        via_wire r.wire.(j) x y zi.zs.(b);
    decr q
  done

(* Vias in the order one orientation's runs sort in within a layer:
   via [o] sits on track line [line o] at [at o] along it, spans layers
   [zlo o .. zhi o] and belongs to wire [wire o]. *)
type via_seq = {
  len : int;
  line : int -> int;
  at : int -> int;
  zlo : int -> int;
  zhi : int -> int;
  wire : int -> int;
}

(* Every via of [vs] against the in-plane runs [r] of one orientation
   on each layer it traverses (a via is a bend, so this is illegal in
   both modes).  [vs] follows the runs' (line, lo) order, so each layer
   bucket is read by one forward cursor and no probe binary-searches. *)
let check_pierces c (r : runs) (zi : zindex) ~horizontal (vs : via_seq) =
  let reach = group_reach r in
  let nb = Array.length zi.bstart - 1 in
  let cur = Array.sub zi.bstart 0 nb in
  for o = 0 to vs.len - 1 do
    let line = vs.line o and at = vs.at o and zhi = vs.zhi o in
    let x = if horizontal then at else line
    and y = if horizontal then line else at in
    let b = ref (lb_ge zi.zs 0 nb (vs.zlo o)) in
    while !b < nb && zi.zs.(!b) <= zhi do
      pierce_step c r reach zi cur !b ~line ~at ~via_wire:(vs.wire o) x y;
      incr b
    done
  done

(* the vias as sorted in the index, (x, y) order: vertical runs' order *)
let vias_by_x (vias : runs) =
  {
    len = vias.n;
    line = (fun o -> vias.k1.(o));
    at = (fun o -> vias.k2.(o));
    zlo = (fun o -> vias.lo.(o));
    zhi = (fun o -> vias.hi.(o));
    wire = (fun o -> vias.wire.(o));
  }

(* The vias in (y, x) order, horizontal runs' order: a stable sort on y
   of the (x, y)-sorted entries.  When they fit, (y, x) is packed into
   the sort key and (z-lo, z span, wire) into one carried word, so the
   sort writes every field in streaming order and reading them back is
   sequential — a gather of five columns through the permutation costs
   a cache and TLB miss each at 10^6 vias.  Otherwise the index order
   is read through a comparator-sorted permutation. *)
let vias_by_y (vias : runs) =
  let n = vias.n in
  let x0, x1 = range vias.k1 n and y0, y1 = range vias.k2 n in
  let z0, z1 = range vias.lo n in
  let span = ref 0 and w1 = ref 0 in
  for i = 0 to n - 1 do
    span := Int.max !span (vias.hi.(i) - vias.lo.(i));
    w1 := Int.max !w1 vias.wire.(i)
  done;
  let bx = bits_for (x1 - x0) and by = bits_for (y1 - y0) in
  let bz = bits_for (z1 - z0) and bs = bits_for !span in
  if n = 0 then vias_by_x vias
  else if bx + by <= 62 && bits_for !w1 + bz + bs <= 62 then begin
    let keys =
      Array.init n (fun i -> ((vias.k2.(i) - y0) lsl bx) lor (vias.k1.(i) - x0))
    in
    let words =
      Array.init n (fun i ->
          (((vias.wire.(i) lsl bz) lor (vias.lo.(i) - z0)) lsl bs)
          lor (vias.hi.(i) - vias.lo.(i)))
    in
    let words_scratch = Array.make n 0 in
    let sorted =
      radix_sort keys ~scratch:(Array.make n 0)
        ~carry:(words, words_scratch) ~from:bx (by + bx)
    in
    let words = if sorted == keys then words else words_scratch in
    let mx = (1 lsl bx) - 1 and mz = (1 lsl bz) - 1 and ms = (1 lsl bs) - 1 in
    let zlo o = ((words.(o) lsr bs) land mz) + z0 in
    {
      len = n;
      line = (fun o -> (sorted.(o) lsr bx) + y0);
      at = (fun o -> (sorted.(o) land mx) + x0);
      zlo;
      zhi = (fun o -> zlo o + (words.(o) land ms));
      wire = (fun o -> words.(o) lsr (bs + bz));
    }
  end
  else begin
    let idx = Array.init n (fun i -> i) in
    Array.stable_sort (fun a b -> Int.compare vias.k2.(a) vias.k2.(b)) idx;
    {
      len = n;
      line = (fun o -> vias.k2.(idx.(o)));
      at = (fun o -> vias.k1.(idx.(o)));
      zlo = (fun o -> vias.lo.(idx.(o)));
      zhi = (fun o -> vias.hi.(idx.(o)));
      wire = (fun o -> vias.wire.(idx.(o)));
    }
  end

let check_vias c (idx : indexes) =
  let vias = idx.vias in
  (* via-via at the same (x, y): the group is sorted by z-lo *)
  iter_groups vias (fun s e -> check_collinear c Via_stack vias s e);
  (* vertical runs sort by (layer, x, y) like the vias themselves;
     horizontal ones by (layer, y, x), which needs the vias re-sorted *)
  check_pierces c idx.v_runs idx.v_z ~horizontal:false (vias_by_x vias);
  check_pierces c idx.h_runs idx.h_z ~horizontal:true (vias_by_y vias)

(* --- node footprint checks ------------------------------------------ *)

(* Nodes indexed by their y rows (for H segments) and x columns (for V
   ones): one flat entry per (row-or-column, node) pair, bucketed by the
   key and sorted inside each bucket by the node's span start on the
   other axis, with a running prefix max of the span ends.  A stabbing
   query for [qlo, qhi] binary-searches the last entry starting at or
   before qhi and walks backwards while the prefix max still reaches
   qlo, so it touches only overlapping candidates (plus one) instead of
   every node sharing the row/column — correct even when footprints
   overlap, which is itself a violation reported elsewhere. *)
type node_index = {
  keys : int array; (* distinct key values, ascending *)
  bstart : int array; (* bucket boundaries, length keys+1 *)
  lo : int array; (* span start on the other axis, ascending per bucket *)
  hi : int array; (* span end *)
  prefmax : int array; (* running max of [hi] within the bucket *)
  node : int array;
}

let build_node_index key_lo key_hi span_lo span_hi (g : Geom.t) =
  let key_lo : Geom.col = key_lo and key_hi : Geom.col = key_hi in
  let span_lo : Geom.col = span_lo and span_hi : Geom.col = span_hi in
  let total = ref 0 in
  for i = 0 to g.Geom.n_nodes - 1 do
    total := !total + (key_hi.{i} - key_lo.{i} + 1)
  done;
  let total = !total in
  let ekey = Array.make (Int.max 1 total) 0 in
  let enode = Array.make (Int.max 1 total) (-1) in
  let j = ref 0 in
  for i = 0 to g.Geom.n_nodes - 1 do
    for key = key_lo.{i} to key_hi.{i} do
      ekey.(!j) <- key;
      enode.(!j) <- i;
      incr j
    done
  done;
  (* sort entries by (key, span start, node): packed radix fast path,
     comparator fallback for out-of-range coordinates *)
  let sorted_key, node =
    if total = 0 then ([||], [||])
    else begin
      let kmin = ref ekey.(0) and kmax = ref ekey.(0) in
      for i = 1 to total - 1 do
        if ekey.(i) < !kmin then kmin := ekey.(i);
        if ekey.(i) > !kmax then kmax := ekey.(i)
      done;
      let lmin = ref span_lo.{0} and lmax = ref span_lo.{0} in
      for i = 1 to g.Geom.n_nodes - 1 do
        let v = span_lo.{i} in
        if v < !lmin then lmin := v;
        if v > !lmax then lmax := v
      done;
      let bkey = bits_for (!kmax - !kmin) in
      let blo = bits_for (!lmax - !lmin) in
      let bnd = bits_for (g.Geom.n_nodes - 1) in
      if bkey + blo + bnd <= 62 then begin
        let kmin = !kmin and lmin = !lmin in
        let packed =
          Array.init total (fun i ->
              let nd = enode.(i) in
              ((((ekey.(i) - kmin) lsl blo) lor (span_lo.{nd} - lmin)) lsl bnd)
              lor nd)
        in
        (* the entry columns are free once packed: one is the sort's
           second buffer, and both take the sorted keys and nodes *)
        let sorted =
          radix_sort packed ~scratch:ekey ~from:bnd (bkey + blo + bnd)
        in
        let maskn = (1 lsl bnd) - 1 in
        for j = 0 to total - 1 do
          let k = sorted.(j) in
          ekey.(j) <- (k lsr (blo + bnd)) + kmin;
          enode.(j) <- k land maskn
        done;
        (ekey, enode)
      end
      else begin
        let idx = Array.init total (fun i -> i) in
        Array.sort
          (fun a b ->
            let c = Int.compare ekey.(a) ekey.(b) in
            if c <> 0 then c
            else
              let c = Int.compare span_lo.{enode.(a)} span_lo.{enode.(b)} in
              if c <> 0 then c else Int.compare enode.(a) enode.(b))
          idx;
        ( Array.map (fun i -> ekey.(i)) idx,
          Array.map (fun i -> enode.(i)) idx )
      end
    end
  in
  let lo = Array.map (fun i -> span_lo.{i}) node in
  let hi = Array.map (fun i -> span_hi.{i}) node in
  let nkeys = ref 0 in
  for i = 0 to total - 1 do
    if i = 0 || sorted_key.(i) <> sorted_key.(i - 1) then incr nkeys
  done;
  let keys = Array.make (Int.max 1 !nkeys) 0 in
  let bstart = Array.make (!nkeys + 1) total in
  let b = ref 0 in
  for i = 0 to total - 1 do
    if i = 0 || sorted_key.(i) <> sorted_key.(i - 1) then begin
      keys.(!b) <- sorted_key.(i);
      bstart.(!b) <- i;
      incr b
    end
  done;
  let prefmax = Array.make (Int.max 1 total) min_int in
  for b = 0 to !nkeys - 1 do
    let m = ref min_int in
    for i = bstart.(b) to bstart.(b + 1) - 1 do
      if hi.(i) > !m then m := hi.(i);
      prefmax.(i) <- !m
    done
  done;
  { keys; bstart; lo; hi; prefmax; node }

(* Stabbing, written out at each call site so that no query allocates a
   closure: [node_bucket ni key] is the bucket of row/column [key] (or
   -1), and the entries of bucket [b] whose span overlaps [qlo, qhi] are
   those with [hi >= qlo] met walking down from [node_last ni b qhi]
   while [prefmax] still reaches qlo. *)
let node_bucket (ni : node_index) key =
  let nk = Array.length ni.bstart - 1 in
  let b = lb_ge ni.keys 0 nk key in
  if b < nk && ni.keys.(b) = key then b else -1

let node_last (ni : node_index) b qhi =
  lb_gt ni.lo ni.bstart.(b) ni.bstart.(b + 1) qhi - 1

(* Two footprints overlap iff one of them contains the other's bottom
   row, so one stab per node along its own bottom row finds every
   overlapping pair: from the higher-based node, or from both when the
   bottom rows coincide, where only the lower id reports. *)
let check_nodes c (layout : Layout.t) (by_y : node_index) =
  let g = Layout.geom layout in
  let node_layers = Layout.node_layers layout in
  for a = 0 to g.Geom.n_nodes - 1 do
    let y0 = g.Geom.ny0.{a} and qlo = g.Geom.nx0.{a} in
    let b = node_bucket by_y y0 in
    if b >= 0 then begin
      let s = by_y.bstart.(b) in
      let p = ref (node_last by_y b g.Geom.nx1.{a}) in
      while !p >= s && by_y.prefmax.(!p) >= qlo do
        let o = by_y.node.(!p) in
        (* footprints may coincide across different active layers *)
        if
          by_y.hi.(!p) >= qlo
          && o <> a
          && node_layers.(o) = node_layers.(a)
          && (g.Geom.ny0.{o} < y0 || a < o)
        then begin
          let a, o = if a < o then (a, o) else (o, a) in
          report c "node-overlap" "nodes %d and %d overlap: %a vs %a" a o
            Rect.pp (Geom.node_rect g a) Rect.pp (Geom.node_rect g o)
        end;
        decr p
      done
    end
  done

(* Per wire, 8 ints: its end nodes u and v, then the coordinates of its
   first and last points.  The wire-vs-node pass meets wires in run
   order, not wire order, and its hits (mostly terminals touching their
   own node) then read one or two cache lines here instead of six
   scattered column entries. *)
let wire_ends (g : Geom.t) =
  let t = Array.make (8 * Int.max 1 g.Geom.n_wires) 0 in
  for w = 0 to g.Geom.n_wires - 1 do
    let f = g.Geom.wire_off.{w} and l = g.Geom.wire_off.{w + 1} - 1 in
    let o = 8 * w in
    t.(o) <- g.Geom.edge_u.{w};
    t.(o + 1) <- g.Geom.edge_v.{w};
    t.(o + 2) <- g.Geom.px.{f};
    t.(o + 3) <- g.Geom.py.{f};
    t.(o + 4) <- g.Geom.pz.{f};
    t.(o + 5) <- g.Geom.px.{l};
    t.(o + 6) <- g.Geom.py.{l};
    t.(o + 7) <- g.Geom.pz.{l}
  done;
  t

(* wire [wire]'s segment meets node [id] at (x, y, z) — one grid point
   if [single] *)
let node_hit c g ends ~wire id ~single x y z =
  let o = 8 * wire in
  let u = ends.(o) and v = ends.(o + 1) in
  if id <> u && id <> v then
    report c "node-hit" "wire %d (%d-%d) crosses foreign node %d (%a)" wire u v
      id Rect.pp (Geom.node_rect g id)
  else if
    not
      (single
      && ((ends.(o + 2) = x && ends.(o + 3) = y && ends.(o + 4) = z)
         || (ends.(o + 5) = x && ends.(o + 6) = y && ends.(o + 7) = z)))
  then
    report c "node-hit"
      "wire %d (%d-%d) overlaps its node %d beyond its terminal" wire u v id

(* index entry [j] met by segment [i] of a sorted slice: a hit when the
   node's active layer lies in the segment's layer range *)
let node_entry_hit c g ends node_layers (ni : node_index) j ~along_x ~line
    ~qlo ~qhi ~zlo ~zhi ~wire =
  let id = ni.node.(j) in
  let zl = node_layers.(id) in
  if zlo <= zl && zl <= zhi then begin
    let lo = Int.max ni.lo.(j) qlo and hi = Int.min ni.hi.(j) qhi in
    let x = if along_x then lo else line and y = if along_x then line else lo in
    node_hit c g ends ~wire id ~single:(lo = hi) x y zl
  end

(* Segments [0, n) against node index [ni]: segment [i] lies on
   row/column [line.(i)] of the index, spans [qlo.(i), qhi.(i)] along
   it ([along_x]: the span is in x) and occupies layers [zlo.(i),
   zhi.(i)].  The segments come from the sorted run indexes, so (line,
   qlo) ascends except where a new layer bucket starts: one cursor
   follows the index's keys and one the entries of the current line,
   and only a step backwards re-seeks them by binary search.  Per
   segment, the entries starting at or before qlo are walked back while
   their prefix max reaches it, and those starting inside the span are
   walked forward. *)
let segments_vs_nodes c g ends node_layers (ni : node_index) ~along_x ~line ~qlo
    ~qhi ~zlo ~zhi ~wire n =
  let nk = Array.length ni.bstart - 1 in
  let kb = ref 0 and b = ref (-1) and ec = ref 0 in
  let at_line = ref max_int and at_lo = ref max_int in
  for i = 0 to n - 1 do
    let l = line.(i) and a = qlo.(i) and z = qhi.(i) in
    if l < !at_line || (l = !at_line && a < !at_lo) then begin
      kb := lb_ge ni.keys 0 nk l;
      b := if !kb < nk && ni.keys.(!kb) = l then !kb else -1;
      if !b >= 0 then ec := ni.bstart.(!b)
    end
    else if l > !at_line then begin
      while !kb < nk && ni.keys.(!kb) < l do
        incr kb
      done;
      b := if !kb < nk && ni.keys.(!kb) = l then !kb else -1;
      if !b >= 0 then ec := ni.bstart.(!b)
    end;
    at_line := l;
    at_lo := a;
    if !b >= 0 then begin
      let s = ni.bstart.(!b) and e = ni.bstart.(!b + 1) in
      while !ec < e && ni.lo.(!ec) <= a do
        incr ec
      done;
      let p = ref (!ec - 1) in
      while !p >= s && ni.prefmax.(!p) >= a do
        if ni.hi.(!p) >= a then
          node_entry_hit c g ends node_layers ni !p ~along_x ~line:l ~qlo:a
            ~qhi:z ~zlo:zlo.(i) ~zhi:zhi.(i) ~wire:wire.(i);
        decr p
      done;
      let f = ref !ec in
      while !f < e && ni.lo.(!f) <= z do
        node_entry_hit c g ends node_layers ni !f ~along_x ~line:l ~qlo:a
          ~qhi:z ~zlo:zlo.(i) ~zhi:zhi.(i) ~wire:wire.(i);
        incr f
      done
    end
  done

(* horizontal runs against node rows, vertical runs against node
   columns, and vias (sorted by x, then y) against node columns at
   their single point *)
let check_wires_vs_nodes c (layout : Layout.t) (by_y : node_index)
    (idx : indexes) =
  let g = Layout.geom layout in
  let node_layers = Layout.node_layers layout in
  let h = idx.h_runs and v = idx.v_runs and z = idx.vias in
  let ends = wire_ends g in
  segments_vs_nodes c g ends node_layers by_y ~along_x:true ~line:h.k2
    ~qlo:h.lo ~qhi:h.hi ~zlo:h.k1 ~zhi:h.k1 ~wire:h.wire h.n;
  let by_x = build_node_index g.Geom.nx0 g.Geom.nx1 g.Geom.ny0 g.Geom.ny1 g in
  segments_vs_nodes c g ends node_layers by_x ~along_x:false ~line:v.k2
    ~qlo:v.lo ~qhi:v.hi ~zlo:v.k1 ~zhi:v.k1 ~wire:v.wire v.n;
  segments_vs_nodes c g ends node_layers by_x ~along_x:false ~line:z.k1
    ~qlo:z.k2 ~qhi:z.k2 ~zlo:z.lo ~zhi:z.hi ~wire:z.wire z.n

(* point [k] lies on the boundary of [node]'s footprint, on its layer *)
let on_boundary (g : Geom.t) node_layers k node =
  let x = g.Geom.px.{k} and y = g.Geom.py.{k} in
  g.Geom.pz.{k} = node_layers.(node)
  && g.Geom.nx0.{node} <= x
  && x <= g.Geom.nx1.{node}
  && g.Geom.ny0.{node} <= y
  && y <= g.Geom.ny1.{node}
  && not
       (g.Geom.nx0.{node} < x
       && x < g.Geom.nx1.{node}
       && g.Geom.ny0.{node} < y
       && y < g.Geom.ny1.{node})

let check_terminals c (layout : Layout.t) =
  let g = Layout.geom layout in
  let node_layers = Layout.node_layers layout in
  let graph_edges = Graph.edges (Layout.graph layout) in
  let on k node = on_boundary g node_layers k node in
  for i = 0 to g.Geom.n_wires - 1 do
    let u = g.Geom.edge_u.{i} and v = g.Geom.edge_v.{i} in
    let gu, gv = graph_edges.(i) in
    if u <> gu || v <> gv then
      report c "edge-mismatch" "wire %d realizes %d-%d but edge %d is %d-%d" i
        u v i gu gv;
    let first = g.Geom.wire_off.{i} and last = g.Geom.wire_off.{i + 1} - 1 in
    if not ((on first u && on last v) || (on first v && on last u)) then
      report c "terminal" "wire %d (%d-%d) does not terminate on its nodes" i
        u v
  done

let check_layers c (layout : Layout.t) =
  let g = Layout.geom layout in
  let layers = Layout.layers layout in
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 1 do
      let z = g.Geom.pz.{k} in
      if z < 1 || z > layers then
        report c "layer-range" "wire %d leaves the layer range at (%d,%d,%d)" i
          g.Geom.px.{k} g.Geom.py.{k} z
    done
  done

(* --- sharded sweeps -------------------------------------------------- *)

(* One shard = one zindex bucket (all runs on one layer) of one sweep
   kind.  A bucket boundary is always a group boundary, so the
   collinear sweep sees whole groups, and the crossing sweep only reads
   the (shared, immutable) indexes — shards never touch common mutable
   state.  Each shard collects into its own local collector with the
   full violation budget; merging the shard lists in task order then
   reproduces exactly the sequential report order, so truncating the
   merged list to the budget yields a byte-identical result at any
   [jobs]. *)
type shard = Sweep_h of int * int | Sweep_v of int * int | Sweep_x of int * int

let shards_of (idx : indexes) =
  let buckets kind (zi : zindex) =
    let nb = Array.length zi.bstart - 1 in
    List.init nb (fun b -> kind zi.bstart.(b) zi.bstart.(b + 1))
  in
  (* task order mirrors the sequential check order: collinear-H,
     collinear-V, crossings — each ascending in z *)
  Array.of_list
    (buckets (fun s e -> Sweep_h (s, e)) idx.h_z
    @ buckets (fun s e -> Sweep_v (s, e)) idx.v_z
    @ buckets (fun s e -> Sweep_x (s, e)) idx.v_z)

let run_shard ~mode ~max_violations (idx : indexes) shard =
  let lc = { violations = []; count = 0; limit = max_violations } in
  (match shard with
  | Sweep_h (s, e) ->
      iter_groups_in idx.h_runs ~from:s ~upto:e (fun gs ge ->
          check_collinear lc Horizontal idx.h_runs gs ge)
  | Sweep_v (s, e) ->
      iter_groups_in idx.v_runs ~from:s ~upto:e (fun gs ge ->
          check_collinear lc Vertical idx.v_runs gs ge)
  | Sweep_x (s, e) -> check_crossings_in lc ~mode idx ~from:s ~upto:e);
  List.rev lc.violations

let merge_into c found =
  List.iter
    (fun v ->
      if c.count < c.limit then begin
        c.violations <- v :: c.violations;
        c.count <- c.count + 1
      end)
    found

(* words allocated so far by the calling domain *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let run ?(mode = Strict) ?(max_violations = 20) ?(jobs = 1) layout =
  let debug = Sys.getenv_opt "MVL_CHECK_TIMINGS" <> None in
  let t0 = ref (Unix.gettimeofday ()) and w0 = ref (allocated_words ()) in
  let tick label =
    if debug then begin
      let t = Unix.gettimeofday () and w = allocated_words () in
      Printf.eprintf "check: %-16s %.4fs %9.3f Mwords\n%!" label (t -. !t0)
        ((w -. !w0) /. 1e6);
      t0 := t;
      w0 := w
    end
  in
  let c = { violations = []; count = 0; limit = max_violations } in
  let g = Layout.geom layout in
  (* the sorted runs serve the wire-vs-node pass too; building them
     first reports nothing, so the passes still report in this order *)
  let idx = build_indexes g in
  tick "build_indexes";
  check_layers c layout;
  tick "layers";
  let by_y = build_node_index g.Geom.ny0 g.Geom.ny1 g.Geom.nx0 g.Geom.nx1 g in
  tick "node_index";
  check_nodes c layout by_y;
  tick "nodes";
  check_terminals c layout;
  tick "terminals";
  check_wires_vs_nodes c layout by_y idx;
  tick "wires_vs_nodes";
  if jobs <= 1 then begin
    iter_groups idx.h_runs (fun s e ->
        check_collinear c Horizontal idx.h_runs s e);
    iter_groups idx.v_runs (fun s e ->
        check_collinear c Vertical idx.v_runs s e);
    tick "collinear";
    check_crossings c ~mode idx;
    tick "crossings"
  end
  else begin
    let results, _ =
      Mvl_pool.Domain_pool.map ~domains:jobs
        ~f:(run_shard ~mode ~max_violations idx)
        (shards_of idx)
    in
    Array.iter (merge_into c) results;
    tick "sharded sweeps"
  end;
  check_vias c idx;
  tick "vias";
  (* once the collector is full, later checks stop recording (and the
     crossing sweep stops looking), so a full collector means the list
     may be incomplete — exactly [limit] entries is NOT "all of them" *)
  { mode; violations = List.rev c.violations; truncated = overfull c }

let validate ?mode ?max_violations layout =
  (run ?mode ?max_violations layout).violations

let is_valid ?mode layout = validate ?mode ~max_violations:1 layout = []
