open Mvl_topology
open Mvl_geometry

type edge = { u : int; v : int; track : int }

type t = {
  graph : Graph.t;
  node_at : int array;
  position : int array;
  edges : edge array;
  tracks : int;
}

let span t e = Interval.make t.position.(e.u) t.position.(e.v)

let position_of_node_at node_at =
  let n = Array.length node_at in
  let position = Array.make n (-1) in
  Array.iteri
    (fun p u ->
      if u < 0 || u >= n then invalid_arg "Collinear: node id out of range";
      if position.(u) >= 0 then invalid_arg "Collinear: duplicate node";
      position.(u) <- p)
    node_at;
  position

let of_order graph ~node_at =
  if Array.length node_at <> Graph.n graph then
    invalid_arg "Collinear.of_order: order length mismatch";
  let position = position_of_node_at node_at in
  let graph_edges = Graph.edges graph in
  let spans =
    Array.map (fun (u, v) -> Interval.make position.(u) position.(v)) graph_edges
  in
  let assignment = Track_assign.greedy spans in
  let edges =
    Array.mapi
      (fun i (u, v) -> { u; v; track = assignment.(i) })
      graph_edges
  in
  {
    graph;
    node_at;
    position;
    edges;
    tracks = Track_assign.count_tracks assignment;
  }

let natural graph =
  of_order graph ~node_at:(Array.init (Graph.n graph) (fun i -> i))

let validate t =
  let n = Graph.n t.graph in
  let ( let* ) r f = Result.bind r f in
  let* () =
    if Array.length t.node_at <> n || Array.length t.position <> n then
      Error "order arrays have wrong length"
    else Ok ()
  in
  let* () =
    try
      let expected = position_of_node_at t.node_at in
      if expected <> t.position then Error "position is not inverse of node_at"
      else Ok ()
    with Invalid_argument msg -> Error msg
  in
  let* () =
    if Array.length t.edges <> Graph.m t.graph then
      Error
        (Printf.sprintf "edge count mismatch: %d edges for %d graph edges"
           (Array.length t.edges) (Graph.m t.graph))
    else Ok ()
  in
  let normalized =
    Array.map (fun e -> if e.u < e.v then (e.u, e.v) else (e.v, e.u)) t.edges
  in
  let sorted = Array.copy normalized in
  Array.sort
    (fun (a1, a2) (b1, b2) ->
      match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
    sorted;
  let* () =
    if sorted <> Graph.edges t.graph then Error "edge set differs from graph"
    else Ok ()
  in
  let* () =
    if Array.exists (fun e -> e.track < 0 || e.track >= t.tracks) t.edges then
      Error "track index out of bounds"
    else Ok ()
  in
  (* interior-disjointness per track *)
  let by_track = Array.make t.tracks [] in
  Array.iter
    (fun e -> by_track.(e.track) <- span t e :: by_track.(e.track))
    t.edges;
  let conflict = ref None in
  Array.iteri
    (fun track spans ->
      if !conflict = None then begin
        let sorted_spans =
          List.sort (fun a b -> Int.compare a.Interval.lo b.Interval.lo) spans
        in
        let rec scan = function
          | a :: (b :: _ as rest) ->
              if Interval.overlap_interior a b then
                conflict :=
                  Some
                    (Format.asprintf "track %d: spans %a and %a overlap" track
                       Interval.pp a Interval.pp b)
              else scan rest
          | _ -> ()
        in
        scan sorted_spans
      end)
    by_track;
  match !conflict with Some msg -> Error msg | None -> Ok ()

let max_span t =
  Array.fold_left
    (fun acc e -> Int.max acc (Interval.length (span t e)))
    0 t.edges

let density_lower_bound t =
  Track_assign.max_density (Array.map (fun e -> span t e) t.edges)

let fold t =
  let n = Array.length t.node_at in
  let h = (n + 1) / 2 in
  let node_at = Array.make n (-1) in
  Array.iteri
    (fun p v ->
      let p' = if p < h then 2 * p else (2 * (n - 1 - p)) + 1 in
      node_at.(p') <- v)
    t.node_at;
  of_order t.graph ~node_at

let relabel_tracks t ~perm =
  if Array.length perm <> t.tracks then invalid_arg "Collinear.relabel_tracks";
  let edges = Array.map (fun e -> { e with track = perm.(e.track) }) t.edges in
  { t with edges }
