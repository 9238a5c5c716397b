open Mvl_topology

let tracks_formula n =
  if n < 0 then invalid_arg "Collinear_hypercube.tracks_formula";
  2 * (1 lsl n) / 3

let create n =
  let graph = Hypercube.create n in
  Collinear.of_order graph ~node_at:(Orders.hypercube_order n)

(* f(m) for the explicit recursion: follows the same parity structure as
   the order construction *)
let rec f_explicit m =
  if m = 0 then 0
  else if m = 1 then 1
  else if m mod 2 = 1 then (2 * f_explicit (m - 1)) + 1
  else (4 * f_explicit (m - 2)) + 2

let create_explicit n =
  let graph = Hypercube.create n in
  let node_at = Orders.hypercube_order n in
  let position = Array.make (Array.length node_at) 0 in
  Array.iteri (fun p v -> position.(v) <- p) node_at;
  (* Track of edge (u, v): find the recursion level at which the edge's
     dimension is consumed, then embed through the enclosing levels.
     Levels, from the top: odd n consumes dimension n-1 (2 copies);
     then pairs (m-1, m-2) downward. *)
  (* offset -> 2-bit copy label is the Gray sequence 0,1,3,2; [inv] maps
     copy label -> offset *)
  let gray = [| 0; 1; 3; 2 |] in
  let inv = Array.make 4 0 in
  Array.iteri (fun offset label -> inv.(label) <- offset) gray;
  let track_of_edge u v =
    let dim = Hypercube.dimension_of_edge u v in
    let rec embed m =
      (* returns the track of the edge within the level-m layout,
         assuming dim < m *)
      if m mod 2 = 1 && dim = m - 1 then
        (* matching step: single fresh track on top *)
        2 * f_explicit (m - 1)
      else if m mod 2 = 1 then
        (* inside one of the 2 copies, block = top bit * f(m-1) *)
        (((u lsr (m - 1)) land 1) * f_explicit (m - 1)) + embed (m - 1)
      else if dim >= m - 2 then begin
        (* 4-copy step consuming dims m-1, m-2: the C4 edges *)
        let label_u = (u lsr (m - 2)) land 3 and label_v = (v lsr (m - 2)) land 3 in
        let off_u = inv.(label_u) and off_v = inv.(label_v) in
        let lo = Int.min off_u off_v and hi = Int.max off_u off_v in
        (* consecutive offsets share the first fresh track; the wrap
           (offsets 0 and 3) takes the second *)
        if hi - lo = 1 then 4 * f_explicit (m - 2)
        else if lo = 0 && hi = 3 then (4 * f_explicit (m - 2)) + 1
        else invalid_arg "Collinear_hypercube: non-C4 copy edge"
      end
      else
        (* inside one of the 4 copies *)
        let off = inv.((u lsr (m - 2)) land 3) in
        (off * f_explicit (m - 2)) + embed (m - 2)
    in
    embed n
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
