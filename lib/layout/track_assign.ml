open Mvl_geometry

(* Two front ends over one engine.

   The flat [_into] functions are the construction hot path: spans live
   in parallel int columns (a CSR slice of Orthogonal's line tables),
   the heap is two preallocated int arrays inside a reusable [scratch],
   and the span sort works on packed [(lo, hi, index)] int keys — no
   records, no tuples, no per-call allocation beyond scratch growth.

   The original [Interval.t array] API stays for the small consumers
   (collinear layouts, cluster quotients, order search).  It keeps its
   historical comparison semantics bit-for-bit: [Array.sort] on a
   (lo, hi) comparator leaves equal spans in an order the flat engine's
   total (lo, hi, index) key would not reproduce, and cluster layouts
   with parallel links depend on that order, so the record API must not
   be rebased onto the flat sort. *)

(* --- in-place int heapsort over a range -------------------------------- *)

(* [Array.sort] cannot sort a prefix in place; this is a plain heapsort
   over [a.(off .. off+len-1)], allocation-free and deterministic. *)
let sort_ints a ~off ~len =
  let sift_down root last =
    let r = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !r) + 1 in
      if child > last then continue := false
      else begin
        let child =
          if child < last && a.(off + child) < a.(off + child + 1) then
            child + 1
          else child
        in
        if a.(off + !r) >= a.(off + child) then continue := false
        else begin
          let tmp = a.(off + !r) in
          a.(off + !r) <- a.(off + child);
          a.(off + child) <- tmp;
          r := child
        end
      end
    done
  in
  for root = (len - 2) / 2 downto 0 do
    sift_down root (len - 1)
  done;
  for last = len - 1 downto 1 do
    let tmp = a.(off) in
    a.(off) <- a.(off + last);
    a.(off + last) <- tmp;
    sift_down 0 (last - 1)
  done

(* --- preallocated int-packed min-heap ---------------------------------- *)

(* Keyed on span right end only — the same comparisons, in the same
   order, as the historical (finish, track) pair heap, so pop order
   (and with it every track assignment) is reproduced exactly. *)
type scratch = {
  mutable keys : int array; (* packed sort keys / event queue *)
  mutable hfin : int array; (* heap: span right ends *)
  mutable htrk : int array; (* heap: track of that span *)
  mutable hsize : int;
}

let scratch () =
  { keys = Array.make 64 0; hfin = Array.make 64 0; htrk = Array.make 64 0;
    hsize = 0 }

let ensure a n =
  if Array.length a >= n then a
  else begin
    let cap = ref (Int.max 64 (Array.length a)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let a' = Array.make !cap 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let heap_push s fin trk =
  if s.hsize = Array.length s.hfin then begin
    s.hfin <- ensure s.hfin (s.hsize + 1);
    s.htrk <- ensure s.htrk (s.hsize + 1)
  end;
  s.hfin.(s.hsize) <- fin;
  s.htrk.(s.hsize) <- trk;
  s.hsize <- s.hsize + 1;
  let i = ref (s.hsize - 1) in
  while !i > 0 && s.hfin.((!i - 1) / 2) > s.hfin.(!i) do
    let p = (!i - 1) / 2 in
    let tf = s.hfin.(p) and tt = s.htrk.(p) in
    s.hfin.(p) <- s.hfin.(!i);
    s.htrk.(p) <- s.htrk.(!i);
    s.hfin.(!i) <- tf;
    s.htrk.(!i) <- tt;
    i := p
  done

let heap_pop s =
  s.hsize <- s.hsize - 1;
  s.hfin.(0) <- s.hfin.(s.hsize);
  s.htrk.(0) <- s.htrk.(s.hsize);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < s.hsize && s.hfin.(l) < s.hfin.(!smallest) then smallest := l;
    if r < s.hsize && s.hfin.(r) < s.hfin.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tf = s.hfin.(!i) and tt = s.htrk.(!i) in
      s.hfin.(!i) <- s.hfin.(!smallest);
      s.htrk.(!i) <- s.htrk.(!smallest);
      s.hfin.(!smallest) <- tf;
      s.htrk.(!smallest) <- tt;
      i := !smallest
    end
  done

(* --- flat engine -------------------------------------------------------- *)

(* key = lo:20 | hi:20 | index:22 — 62 bits, always positive *)
let coord_bits = 20
let index_bits = 22
let coord_limit = 1 lsl coord_bits
let index_limit = 1 lsl index_bits

let greedy_into s ~lo ~hi ~track ~off ~len =
  if len = 0 then 0
  else begin
    if len > index_limit then
      invalid_arg "Track_assign.greedy_into: more than 2^22 spans on one line";
    s.keys <- ensure s.keys len;
    let keys = s.keys in
    for i = 0 to len - 1 do
      let a = lo.(off + i) and b = hi.(off + i) in
      let a, b = if a <= b then (a, b) else (b, a) in
      if a < 0 || b >= coord_limit then
        invalid_arg "Track_assign.greedy_into: coordinate out of [0, 2^20)";
      keys.(i) <-
        (a lsl (coord_bits + index_bits)) lor (b lsl index_bits) lor i
    done;
    sort_ints keys ~off:0 ~len;
    s.hsize <- 0;
    let next_track = ref 0 in
    for k = 0 to len - 1 do
      let key = keys.(k) in
      let i = key land (index_limit - 1) in
      let b = (key lsr index_bits) land (coord_limit - 1) in
      let a = key lsr (coord_bits + index_bits) in
      let t =
        if s.hsize > 0 && s.hfin.(0) <= a then begin
          let t = s.htrk.(0) in
          heap_pop s;
          t
        end
        else begin
          let t = !next_track in
          incr next_track;
          t
        end
      in
      track.(off + i) <- t;
      heap_push s b t
    done;
    !next_track
  end

let max_density_into s ~lo ~hi ~off ~len =
  if len = 0 then 0
  else begin
    (* event key = coordinate:62 | open?:1 — closings sort before
       openings at the same coordinate, so density is measured on open
       interiors exactly like the record API always did *)
    s.keys <- ensure s.keys (2 * len);
    let keys = s.keys in
    for i = 0 to len - 1 do
      let a = lo.(off + i) and b = hi.(off + i) in
      let a, b = if a <= b then (a, b) else (b, a) in
      keys.(2 * i) <- (a lsl 1) lor 1;
      keys.((2 * i) + 1) <- b lsl 1
    done;
    sort_ints keys ~off:0 ~len:(2 * len);
    let best = ref 0 and current = ref 0 in
    for k = 0 to (2 * len) - 1 do
      if keys.(k) land 1 = 1 then begin
        incr current;
        if !current > !best then best := !current
      end
      else decr current
    done;
    !best
  end

(* --- record front end --------------------------------------------------- *)

let greedy spans =
  let count = Array.length spans in
  let order = Array.init count (fun i -> i) in
  Array.sort
    (fun a b ->
      match Int.compare spans.(a).Interval.lo spans.(b).Interval.lo with
      | 0 -> Int.compare spans.(a).Interval.hi spans.(b).Interval.hi
      | c -> c)
    order;
  let assignment = Array.make count 0 in
  (* a track is reusable for a span starting at [lo] when its last span
     ends at or before [lo] *)
  let s = scratch () in
  let next_track = ref 0 in
  Array.iter
    (fun i ->
      let span = spans.(i) in
      let t =
        if s.hsize > 0 && s.hfin.(0) <= span.Interval.lo then begin
          let t = s.htrk.(0) in
          heap_pop s;
          t
        end
        else begin
          let t = !next_track in
          incr next_track;
          t
        end
      in
      assignment.(i) <- t;
      heap_push s span.Interval.hi t)
    order;
  assignment

let max_density spans =
  let count = Array.length spans in
  let lo = Array.make (Int.max 1 count) 0
  and hi = Array.make (Int.max 1 count) 0 in
  Array.iteri
    (fun i s ->
      lo.(i) <- s.Interval.lo;
      hi.(i) <- s.Interval.hi)
    spans;
  max_density_into (scratch ()) ~lo ~hi ~off:0 ~len:count

let count_tracks assignment =
  Array.fold_left (fun acc t -> Int.max acc (t + 1)) 0 assignment
