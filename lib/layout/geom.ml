open Mvl_geometry

type col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n_nodes : int;
  n_wires : int;
  n_points : int;
  nx0 : col;
  ny0 : col;
  nx1 : col;
  ny1 : col;
  wire_off : col;
  edge_u : col;
  edge_v : col;
  px : col;
  py : col;
  pz : col;
}

let alloc n : col = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let n_segments t = t.n_points - t.n_wires

(* the four node-corner columns, the CSR offset column, the two edge
   columns and the three point columns, at one word per element — the
   off-heap footprint a resident layout actually pins *)
let resident_bytes t =
  ((4 * t.n_nodes) + (t.n_wires + 1) + (2 * t.n_wires) + (3 * t.n_points))
  * (Sys.word_size / 8)

let node_rect t i =
  Rect.make ~x0:t.nx0.{i} ~y0:t.ny0.{i} ~x1:t.nx1.{i} ~y1:t.ny1.{i}

let wire_view t i =
  let lo = t.wire_off.{i} and hi = t.wire_off.{i + 1} in
  let points =
    Array.init (hi - lo) (fun j ->
        let k = lo + j in
        Point.make ~x:t.px.{k} ~y:t.py.{k} ~z:t.pz.{k})
  in
  Wire.unsafe_of_points ~edge:(t.edge_u.{i}, t.edge_v.{i}) points

let nodes_view t = Array.init t.n_nodes (node_rect t)
let wires_view t = Array.init t.n_wires (wire_view t)

let of_wires ~nodes ~wires =
  let n_nodes = Array.length nodes and n_wires = Array.length wires in
  let n_points =
    Array.fold_left (fun acc w -> acc + Array.length w.Wire.points) 0 wires
  in
  let nx0 = alloc n_nodes and ny0 = alloc n_nodes in
  let nx1 = alloc n_nodes and ny1 = alloc n_nodes in
  Array.iteri
    (fun i (r : Rect.t) ->
      nx0.{i} <- r.Rect.x0;
      ny0.{i} <- r.Rect.y0;
      nx1.{i} <- r.Rect.x1;
      ny1.{i} <- r.Rect.y1)
    nodes;
  let wire_off = alloc (n_wires + 1) in
  let edge_u = alloc n_wires and edge_v = alloc n_wires in
  let px = alloc n_points and py = alloc n_points and pz = alloc n_points in
  let k = ref 0 in
  wire_off.{0} <- 0;
  Array.iteri
    (fun i (w : Wire.t) ->
      let u, v = w.Wire.edge in
      edge_u.{i} <- u;
      edge_v.{i} <- v;
      Array.iter
        (fun (p : Point.t) ->
          px.{!k} <- p.Point.x;
          py.{!k} <- p.Point.y;
          pz.{!k} <- p.Point.z;
          incr k)
        w.Wire.points;
      wire_off.{i + 1} <- !k)
    wires;
  { n_nodes; n_wires; n_points; nx0; ny0; nx1; ny1; wire_off; edge_u; edge_v;
    px; py; pz }

let col_equal (a : col) (b : col) =
  let n = Bigarray.Array1.dim a in
  n = Bigarray.Array1.dim b
  &&
  let i = ref 0 in
  while !i < n && a.{!i} = b.{!i} do
    incr i
  done;
  !i = n

let equal a b =
  a.n_nodes = b.n_nodes && a.n_wires = b.n_wires && a.n_points = b.n_points
  && col_equal a.nx0 b.nx0 && col_equal a.ny0 b.ny0 && col_equal a.nx1 b.nx1
  && col_equal a.ny1 b.ny1
  && col_equal a.wire_off b.wire_off
  && col_equal a.edge_u b.edge_u && col_equal a.edge_v b.edge_v
  && col_equal a.px b.px && col_equal a.py b.py && col_equal a.pz b.pz

let shift_col (src : col) d =
  let n = Bigarray.Array1.dim src in
  let dst = alloc n in
  if d = 0 then Bigarray.Array1.blit src dst
  else
    for i = 0 to n - 1 do
      dst.{i} <- src.{i} + d
    done;
  dst

let translate t ~dx ~dy =
  {
    t with
    nx0 = shift_col t.nx0 dx;
    ny0 = shift_col t.ny0 dy;
    nx1 = shift_col t.nx1 dx;
    ny1 = shift_col t.ny1 dy;
    px = shift_col t.px dx;
    py = shift_col t.py dy;
  }

let bounding_box t =
  if t.n_nodes = 0 && t.n_points = 0 then Rect.make ~x0:0 ~y0:0 ~x1:0 ~y1:0
  else begin
    let x0 = ref max_int and y0 = ref max_int in
    let x1 = ref min_int and y1 = ref min_int in
    for i = 0 to t.n_nodes - 1 do
      if t.nx0.{i} < !x0 then x0 := t.nx0.{i};
      if t.ny0.{i} < !y0 then y0 := t.ny0.{i};
      if t.nx1.{i} > !x1 then x1 := t.nx1.{i};
      if t.ny1.{i} > !y1 then y1 := t.ny1.{i}
    done;
    for k = 0 to t.n_points - 1 do
      if t.px.{k} < !x0 then x0 := t.px.{k};
      if t.px.{k} > !x1 then x1 := t.px.{k};
      if t.py.{k} < !y0 then y0 := t.py.{k};
      if t.py.{k} > !y1 then y1 := t.py.{k}
    done;
    Rect.make ~x0:!x0 ~y0:!y0 ~x1:!x1 ~y1:!y1
  end

let wire_length_xy t i =
  let lo = t.wire_off.{i} and hi = t.wire_off.{i + 1} in
  let total = ref 0 in
  for k = lo to hi - 2 do
    total :=
      !total + abs (t.px.{k + 1} - t.px.{k}) + abs (t.py.{k + 1} - t.py.{k})
  done;
  !total

let wire_length t i =
  let lo = t.wire_off.{i} and hi = t.wire_off.{i + 1} in
  let total = ref 0 in
  for k = lo to hi - 2 do
    total :=
      !total
      + abs (t.px.{k + 1} - t.px.{k})
      + abs (t.py.{k + 1} - t.py.{k})
      + abs (t.pz.{k + 1} - t.pz.{k})
  done;
  !total

module Builder = struct
  type b = {
    n_nodes : int;
    n_wires : int;
    bnx0 : int array;
    bny0 : int array;
    bnx1 : int array;
    bny1 : int array;
    node_set : Bytes.t;
    wu : int array;
    wv : int array;
    wstart : int array; (* offset of wire id's first point in the append
                           buffer, -1 while unrouted *)
    wcount : int array;
    mutable bx : int array; (* growable append buffer *)
    mutable by : int array;
    mutable bz : int array;
    mutable len : int;
    mutable current : int; (* wire id being emitted, -1 between wires *)
  }

  let create ~n_nodes ~n_wires =
    if n_nodes < 0 || n_wires < 0 then invalid_arg "Geom.Builder.create";
    let cap = Int.max 16 (n_wires * 8) in
    {
      n_nodes;
      n_wires;
      bnx0 = Array.make (Int.max 1 n_nodes) 0;
      bny0 = Array.make (Int.max 1 n_nodes) 0;
      bnx1 = Array.make (Int.max 1 n_nodes) 0;
      bny1 = Array.make (Int.max 1 n_nodes) 0;
      node_set = Bytes.make (Int.max 1 n_nodes) '\000';
      wu = Array.make (Int.max 1 n_wires) 0;
      wv = Array.make (Int.max 1 n_wires) 0;
      wstart = Array.make (Int.max 1 n_wires) (-1);
      wcount = Array.make (Int.max 1 n_wires) 0;
      bx = Array.make cap 0;
      by = Array.make cap 0;
      bz = Array.make cap 0;
      len = 0;
      current = -1;
    }

  let set_node b i ~x0 ~y0 ~x1 ~y1 =
    if i < 0 || i >= b.n_nodes then invalid_arg "Geom.Builder.set_node: id";
    if x0 > x1 || y0 > y1 then
      invalid_arg "Geom.Builder.set_node: inverted bounds";
    b.bnx0.(i) <- x0;
    b.bny0.(i) <- y0;
    b.bnx1.(i) <- x1;
    b.bny1.(i) <- y1;
    Bytes.set b.node_set i '\001'

  let close_wire b =
    if b.current >= 0 && b.wcount.(b.current) < 2 then
      invalid_arg
        (Printf.sprintf "Geom.Builder: wire %d has fewer than 2 points"
           b.current);
    b.current <- -1

  let start_wire b ~id ~u ~v =
    if id < 0 || id >= b.n_wires then invalid_arg "Geom.Builder.start_wire: id";
    if b.wstart.(id) >= 0 then
      invalid_arg
        (Printf.sprintf "Geom.Builder: wire %d emitted twice" id);
    close_wire b;
    b.wu.(id) <- u;
    b.wv.(id) <- v;
    b.wstart.(id) <- b.len;
    b.current <- id

  let grow b =
    let cap = Array.length b.bx in
    let cap' = cap * 2 in
    let extend a =
      let a' = Array.make cap' 0 in
      Array.blit a 0 a' 0 cap;
      a'
    in
    b.bx <- extend b.bx;
    b.by <- extend b.by;
    b.bz <- extend b.bz

  let point b ~x ~y ~z =
    let id = b.current in
    if id < 0 then invalid_arg "Geom.Builder.point: no open wire";
    let cnt = b.wcount.(id) in
    if
      cnt > 0
      && b.bx.(b.len - 1) = x
      && b.by.(b.len - 1) = y
      && b.bz.(b.len - 1) = z
    then () (* zero-length step, dropped like Wire.make *)
    else begin
      if cnt > 0 then begin
        let k = b.len - 1 in
        let changed =
          (if b.bx.(k) <> x then 1 else 0)
          + (if b.by.(k) <> y then 1 else 0)
          + if b.bz.(k) <> z then 1 else 0
        in
        if changed <> 1 then
          invalid_arg "Geom.Builder.point: not axis-aligned"
      end;
      if b.len = Array.length b.bx then grow b;
      b.bx.(b.len) <- x;
      b.by.(b.len) <- y;
      b.bz.(b.len) <- z;
      b.len <- b.len + 1;
      b.wcount.(id) <- cnt + 1
    end

  let build b =
    close_wire b;
    for id = 0 to b.n_wires - 1 do
      if b.wstart.(id) < 0 then
        invalid_arg
          (Printf.sprintf "Geom.Builder.build: wire %d not emitted" id)
    done;
    for i = 0 to b.n_nodes - 1 do
      if Bytes.get b.node_set i = '\000' then
        invalid_arg
          (Printf.sprintf "Geom.Builder.build: node %d not set" i)
    done;
    let n_points = ref 0 in
    for id = 0 to b.n_wires - 1 do
      n_points := !n_points + b.wcount.(id)
    done;
    let n_points = !n_points in
    let nx0 = alloc b.n_nodes and ny0 = alloc b.n_nodes in
    let nx1 = alloc b.n_nodes and ny1 = alloc b.n_nodes in
    for i = 0 to b.n_nodes - 1 do
      nx0.{i} <- b.bnx0.(i);
      ny0.{i} <- b.bny0.(i);
      nx1.{i} <- b.bnx1.(i);
      ny1.{i} <- b.bny1.(i)
    done;
    let wire_off = alloc (b.n_wires + 1) in
    let edge_u = alloc b.n_wires and edge_v = alloc b.n_wires in
    let px = alloc n_points and py = alloc n_points and pz = alloc n_points in
    let k = ref 0 in
    wire_off.{0} <- 0;
    (* wires were emitted in construction order; lay the columns out in
       edge-id order so a wire's points sit at [wire_off.{id}..] *)
    for id = 0 to b.n_wires - 1 do
      edge_u.{id} <- b.wu.(id);
      edge_v.{id} <- b.wv.(id);
      let s = b.wstart.(id) and c = b.wcount.(id) in
      for j = 0 to c - 1 do
        px.{!k + j} <- b.bx.(s + j);
        py.{!k + j} <- b.by.(s + j);
        pz.{!k + j} <- b.bz.(s + j)
      done;
      k := !k + c;
      wire_off.{id + 1} <- !k
    done;
    {
      n_nodes = b.n_nodes;
      n_wires = b.n_wires;
      n_points;
      nx0;
      ny0;
      nx1;
      ny1;
      wire_off;
      edge_u;
      edge_v;
      px;
      py;
      pz;
    }

  (* --- fixed-offset parallel emission ---------------------------------- *)

  (* When a construction knows every wire's exact (deduped) point count
     up front, emission can skip the append-buffer-then-reorder path
     entirely: [create_fixed] lays out the final CSR columns from the
     counts, and each [writer] streams points straight into its wire's
     [wire_off] range.  Writers on distinct wire sets never touch the
     same slots, so emission shards across domains with no merge step
     and no intermediate copy — the columns the writers filled ARE the
     built geometry, byte-identical at every writer/job count.

     Validation is as strict as [build]: duplicate emission and missing
     wires are caught (the duplicate check is exact for single-domain
     use and for the disjoint chunks the layout engines emit; racing
     writers on the *same* wire id from two domains is undefined), a
     wire whose deduped points don't land exactly on its precomputed
     count raises, and point semantics (dedupe, axis alignment) match
     [point] bit for bit. *)
  type fixed = {
    fn_nodes : int;
    fn_wires : int;
    f_off : col;
    f_eu : col;
    f_ev : col;
    f_px : col;
    f_py : col;
    f_pz : col;
    f_nx0 : col;
    f_ny0 : col;
    f_nx1 : col;
    f_ny1 : col;
    f_node_set : Bytes.t;
    f_wire_set : Bytes.t;
  }

  let create_fixed ~n_nodes ~wire_counts =
    if n_nodes < 0 then invalid_arg "Geom.Builder.create_fixed";
    let n_wires = Array.length wire_counts in
    let off = alloc (n_wires + 1) in
    off.{0} <- 0;
    for id = 0 to n_wires - 1 do
      if wire_counts.(id) < 2 then
        invalid_arg
          (Printf.sprintf "Geom.Builder: wire %d has fewer than 2 points" id);
      off.{id + 1} <- off.{id} + wire_counts.(id)
    done;
    let n_points = off.{n_wires} in
    {
      fn_nodes = n_nodes;
      fn_wires = n_wires;
      f_off = off;
      f_eu = alloc (Int.max 1 n_wires);
      f_ev = alloc (Int.max 1 n_wires);
      f_px = alloc (Int.max 1 n_points);
      f_py = alloc (Int.max 1 n_points);
      f_pz = alloc (Int.max 1 n_points);
      f_nx0 = alloc (Int.max 1 n_nodes);
      f_ny0 = alloc (Int.max 1 n_nodes);
      f_nx1 = alloc (Int.max 1 n_nodes);
      f_ny1 = alloc (Int.max 1 n_nodes);
      f_node_set = Bytes.make (Int.max 1 n_nodes) '\000';
      f_wire_set = Bytes.make (Int.max 1 n_wires) '\000';
    }

  let set_node_fixed fx i ~x0 ~y0 ~x1 ~y1 =
    if i < 0 || i >= fx.fn_nodes then invalid_arg "Geom.Builder.set_node: id";
    if x0 > x1 || y0 > y1 then
      invalid_arg "Geom.Builder.set_node: inverted bounds";
    fx.f_nx0.{i} <- x0;
    fx.f_ny0.{i} <- y0;
    fx.f_nx1.{i} <- x1;
    fx.f_ny1.{i} <- y1;
    Bytes.set fx.f_node_set i '\001'

  type writer = {
    fx : fixed;
    mutable wid : int;   (* current wire id, -1 between wires *)
    mutable wlo : int;   (* first point slot of the current wire *)
    mutable wcur : int;  (* next point slot *)
    mutable wstop : int; (* one past the current wire's last slot *)
  }

  let writer fx = { fx; wid = -1; wlo = 0; wcur = 0; wstop = 0 }

  let writer_done w =
    if w.wid >= 0 && w.wcur <> w.wstop then
      invalid_arg
        (Printf.sprintf "Geom.Builder: wire %d point count mismatch" w.wid);
    w.wid <- -1

  let fixed_wire w ~id ~u ~v =
    let fx = w.fx in
    if id < 0 || id >= fx.fn_wires then invalid_arg "Geom.Builder.fixed_wire: id";
    writer_done w;
    if Bytes.get fx.f_wire_set id = '\001' then
      invalid_arg (Printf.sprintf "Geom.Builder: wire %d emitted twice" id);
    Bytes.set fx.f_wire_set id '\001';
    fx.f_eu.{id} <- u;
    fx.f_ev.{id} <- v;
    w.wid <- id;
    w.wlo <- fx.f_off.{id};
    w.wcur <- w.wlo;
    w.wstop <- fx.f_off.{id + 1}

  let fixed_point w ~x ~y ~z =
    if w.wid < 0 then invalid_arg "Geom.Builder.point: no open wire";
    let fx = w.fx in
    let k = w.wcur - 1 in
    if
      w.wcur > w.wlo
      && fx.f_px.{k} = x
      && fx.f_py.{k} = y
      && fx.f_pz.{k} = z
    then () (* zero-length step, dropped like Wire.make *)
    else begin
      if w.wcur > w.wlo then begin
        let changed =
          (if fx.f_px.{k} <> x then 1 else 0)
          + (if fx.f_py.{k} <> y then 1 else 0)
          + if fx.f_pz.{k} <> z then 1 else 0
        in
        if changed <> 1 then invalid_arg "Geom.Builder.point: not axis-aligned"
      end;
      if w.wcur = w.wstop then
        invalid_arg
          (Printf.sprintf "Geom.Builder: wire %d point count mismatch" w.wid);
      fx.f_px.{w.wcur} <- x;
      fx.f_py.{w.wcur} <- y;
      fx.f_pz.{w.wcur} <- z;
      w.wcur <- w.wcur + 1
    end

  let build_fixed fx =
    for id = 0 to fx.fn_wires - 1 do
      if Bytes.get fx.f_wire_set id = '\000' then
        invalid_arg
          (Printf.sprintf "Geom.Builder.build: wire %d not emitted" id)
    done;
    for i = 0 to fx.fn_nodes - 1 do
      if Bytes.get fx.f_node_set i = '\000' then
        invalid_arg (Printf.sprintf "Geom.Builder.build: node %d not set" i)
    done;
    {
      n_nodes = fx.fn_nodes;
      n_wires = fx.fn_wires;
      n_points = fx.f_off.{fx.fn_wires};
      nx0 = fx.f_nx0;
      ny0 = fx.f_ny0;
      nx1 = fx.f_nx1;
      ny1 = fx.f_ny1;
      wire_off = fx.f_off;
      edge_u = fx.f_eu;
      edge_v = fx.f_ev;
      px = fx.f_px;
      py = fx.f_py;
      pz = fx.f_pz;
    }
end
