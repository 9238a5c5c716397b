open Mvl_topology
module Span = Mvl_span.Span

type line_edge = { edge_id : int; a : int; b : int; track : int }

type t = {
  graph : Graph.t;
  rows : int;
  cols : int;
  place : (int * int) array;
  node_at : int array array;
  row_off : int array;
  row_eid : int array;
  row_a : int array;
  row_b : int array;
  row_track : int array;
  col_off : int array;
  col_eid : int array;
  col_a : int array;
  col_b : int array;
  col_track : int array;
  row_tracks : int array;
  col_tracks : int array;
}

(* placement, edge classification and the CSR fill; tracks are left
   for [pack_tracks] *)
let place_edges graph ~rows ~cols ~place =
  let n = Graph.n graph in
  if rows * cols <> n then
    invalid_arg
      (Printf.sprintf "Orthogonal.create: %dx%d grid for %d nodes" rows cols n);
  let placements = Array.init n place in
  let node_at = Array.make_matrix rows cols (-1) in
  Array.iteri
    (fun u (r, c) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg "Orthogonal.create: placement out of grid";
      if node_at.(r).(c) >= 0 then
        invalid_arg "Orthogonal.create: two nodes on one grid cell";
      node_at.(r).(c) <- u)
    placements;
  (* two-pass counting sort of edges into per-line CSR columns: count,
     prefix-sum, fill.  Each line's edges end up in ascending edge id
     order; nothing downstream depends on intra-line order (terminals
     re-sort incidence, emission is reordered by wire id at build). *)
  let row_off = Array.make (rows + 1) 0 and col_off = Array.make (cols + 1) 0 in
  Graph.iter_edges graph (fun u v ->
      let ru, cu = placements.(u) and rv, cv = placements.(v) in
      if ru = rv && cu <> cv then row_off.(ru + 1) <- row_off.(ru + 1) + 1
      else if cu = cv && ru <> rv then col_off.(cu + 1) <- col_off.(cu + 1) + 1
      else
        invalid_arg
          (Printf.sprintf
             "Orthogonal.create: edge %d-%d is not row- or column-aligned" u v));
  for r = 1 to rows do
    row_off.(r) <- row_off.(r) + row_off.(r - 1)
  done;
  for c = 1 to cols do
    col_off.(c) <- col_off.(c) + col_off.(c - 1)
  done;
  let rm = row_off.(rows) and cm = col_off.(cols) in
  let row_eid = Array.make rm 0
  and row_a = Array.make rm 0
  and row_b = Array.make rm 0
  and row_track = Array.make rm 0 in
  let col_eid = Array.make cm 0
  and col_a = Array.make cm 0
  and col_b = Array.make cm 0
  and col_track = Array.make cm 0 in
  let row_cur = Array.copy row_off and col_cur = Array.copy col_off in
  let next_eid = ref 0 in
  Graph.iter_edges graph (fun u v ->
      let e = !next_eid in
      incr next_eid;
      let ru, cu = placements.(u) and rv, cv = placements.(v) in
      if ru = rv then begin
        let k = row_cur.(ru) in
        row_cur.(ru) <- k + 1;
        row_eid.(k) <- e;
        row_a.(k) <- Int.min cu cv;
        row_b.(k) <- Int.max cu cv
      end
      else begin
        let k = col_cur.(cu) in
        col_cur.(cu) <- k + 1;
        col_eid.(k) <- e;
        col_a.(k) <- Int.min ru rv;
        col_b.(k) <- Int.max ru rv
      end);
  {
    graph;
    rows;
    cols;
    place = placements;
    node_at;
    row_off;
    row_eid;
    row_a;
    row_b;
    row_track;
    col_off;
    col_eid;
    col_a;
    col_b;
    col_track;
    row_tracks = [||];
    col_tracks = [||];
  }

(* per-line track packing: lines are independent, so a unified line
   index [0, rows + cols) shards across domains in contiguous chunks;
   each line writes only its own track slice and tracks cell, and the
   result per line is deterministic, so output is identical at every
   job count *)
let pack_tracks ~jobs o =
  let { rows; cols; row_off; row_a; row_b; row_track; _ } = o in
  let { col_off; col_a; col_b; col_track; _ } = o in
  let row_tracks = Array.make rows 0 and col_tracks = Array.make cols 0 in
  let pack_range s line_lo line_hi =
    for line = line_lo to line_hi - 1 do
      if line < rows then
        row_tracks.(line) <-
          Track_assign.greedy_into s ~lo:row_a ~hi:row_b ~track:row_track
            ~off:row_off.(line)
            ~len:(row_off.(line + 1) - row_off.(line))
      else begin
        let c = line - rows in
        col_tracks.(c) <-
          Track_assign.greedy_into s ~lo:col_a ~hi:col_b ~track:col_track
            ~off:col_off.(c)
            ~len:(col_off.(c + 1) - col_off.(c))
      end
    done
  in
  let lines = rows + cols in
  let jobs = if jobs <= 1 then 1 else Int.min jobs (Int.max 1 lines) in
  if jobs = 1 then pack_range (Track_assign.scratch ()) 0 lines
  else begin
    let workers = Array.init jobs (fun w -> w) in
    let _, _stats =
      Mvl_pool.Domain_pool.map ~domains:jobs
        ~f:(fun w ->
          pack_range (Track_assign.scratch ()) (w * lines / jobs)
            ((w + 1) * lines / jobs))
        workers
    in
    ()
  end;
  { o with row_tracks; col_tracks }

let create ?(jobs = 1) graph ~rows ~cols ~place =
  let o = Span.with_ "place" (fun () -> place_edges graph ~rows ~cols ~place) in
  Span.with_ "pack" (fun () -> pack_tracks ~jobs o)

let of_product ?jobs ~row_factor ~col_factor graph =
  let na = Graph.n row_factor.Collinear.graph in
  let nb = Graph.n col_factor.Collinear.graph in
  if na * nb <> Graph.n graph then
    invalid_arg "Orthogonal.of_product: factor sizes do not match";
  let place v =
    let x = v mod na and y = v / na in
    (col_factor.Collinear.position.(y), row_factor.Collinear.position.(x))
  in
  create ?jobs graph ~rows:nb ~cols:na ~place

let row_edge_count t r = t.row_off.(r + 1) - t.row_off.(r)
let col_edge_count t c = t.col_off.(c + 1) - t.col_off.(c)

let row_edges t r =
  Array.init (row_edge_count t r) (fun i ->
      let k = t.row_off.(r) + i in
      {
        edge_id = t.row_eid.(k);
        a = t.row_a.(k);
        b = t.row_b.(k);
        track = t.row_track.(k);
      })

let col_edges t c =
  Array.init (col_edge_count t c) (fun i ->
      let k = t.col_off.(c) + i in
      {
        edge_id = t.col_eid.(k);
        a = t.col_a.(k);
        b = t.col_b.(k);
        track = t.col_track.(k);
      })

let total_row_tracks t = Array.fold_left ( + ) 0 t.row_tracks
let total_col_tracks t = Array.fold_left ( + ) 0 t.col_tracks

let count_degrees t ~of_rows =
  let n = Graph.n t.graph in
  let deg = Array.make n 0 in
  if of_rows then
    for r = 0 to t.rows - 1 do
      for k = t.row_off.(r) to t.row_off.(r + 1) - 1 do
        let u = t.node_at.(r).(t.row_a.(k))
        and v = t.node_at.(r).(t.row_b.(k)) in
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      done
    done
  else
    for c = 0 to t.cols - 1 do
      for k = t.col_off.(c) to t.col_off.(c + 1) - 1 do
        let u = t.node_at.(t.col_a.(k)).(c)
        and v = t.node_at.(t.col_b.(k)).(c) in
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      done
    done;
  Array.fold_left Int.max 0 deg

let max_row_degree t = count_degrees t ~of_rows:true
let max_col_degree t = count_degrees t ~of_rows:false
