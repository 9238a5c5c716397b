open Mvl_topology

let ipow k n =
  let rec go acc n = if n = 0 then acc else go (acc * k) (n - 1) in
  go 1 n

let tracks_formula ~k ~n =
  if k < 2 || n < 1 then invalid_arg "Collinear_kary.tracks_formula";
  2 * ((ipow k n - 1) / (k - 1))

let create ?(fold = false) ~k ~n () =
  if k < 3 then invalid_arg "Collinear_kary.create: k < 3";
  let graph = Kary_ncube.create ~k ~n in
  let radices = Kary_ncube.radices ~k ~n in
  let node_at =
    if fold then Orders.digit_reversed_folded radices
    else Orders.digit_reversed radices ~node_at:()
  in
  Collinear.of_order graph ~node_at

let create_explicit ~k ~n =
  if k < 3 then invalid_arg "Collinear_kary.create_explicit: k < 3";
  let graph = Kary_ncube.create ~k ~n in
  let radices = Kary_ncube.radices ~k ~n in
  let node_at = Orders.digit_reversed radices ~node_at:() in
  let position = Array.make (Array.length node_at) 0 in
  Array.iteri (fun p v -> position.(v) <- p) node_at;
  (* track of an edge: recursion level by the dimension of the edge.
     dimension j edges live in the copies created at level j+1; a level-m
     layout has f(m) tracks; the copy structure maps the dimension-j
     edge of a node to track:
       base(j) + copy_block(j) * f(j+1)_sub ... computed iteratively. *)
  let f = Array.make (n + 1) 0 in
  for m = 1 to n do
    f.(m) <- if m = 1 then 2 else (k * f.(m - 1)) + 2
  done;
  let track_of_edge u v =
    let j = Kary_ncube.dimension_of_edge ~k ~n u v in
    (* Inside the level-(j+1) sublayout the edge uses one of the 2 fresh
       tracks.  Walking outward (levels j+2 .. n), each level multiplies
       the track space: the sublayout containing the edge is copy
       [digit_{m-1}] of the level-m layout and its tracks sit in the
       block [copy * f(m-1)]. *)
    let du = Mixed_radix.to_digits radices u in
    let dv = Mixed_radix.to_digits radices v in
    let fresh =
      (* within level j+1: adjacent-ring edges -> first fresh track;
         the wrap edge -> second *)
      let a = Int.min du.(j) dv.(j) and b = Int.max du.(j) dv.(j) in
      if b - a = 1 then k * f.(j) else (k * f.(j)) + 1
    in
    (* embed into enclosing levels: at level m (from j+2 to n), the edge
       lies in copy given by digit m-1 of either endpoint (they agree) *)
    let t = ref fresh in
    for m = j + 2 to n do
      t := (du.(m - 1) * f.(m - 1)) + !t
    done;
    !t
  in
  let edges =
    Array.map
      (fun (u, v) -> { Collinear.u; v; track = track_of_edge u v })
      (Graph.edges graph)
  in
  let tracks =
    Array.fold_left (fun acc e -> Int.max acc (e.Collinear.track + 1)) 0 edges
  in
  { Collinear.graph; node_at; position; edges; tracks }
