open Mvl_topology
open Mvl_geometry

type spec = {
  pn : Pn_cluster.t;
  rows : int;
  cols : int;
  qplace : int -> int * int;
  intra : Collinear.t;
}

let of_product_quotient ~pn ~row_factor ~col_factor ~intra =
  let na = Graph.n row_factor.Collinear.graph in
  let nb = Graph.n col_factor.Collinear.graph in
  if na * nb <> Graph.n pn.Pn_cluster.quotient then
    invalid_arg "Cluster_expand.of_product_quotient: size mismatch";
  let qplace q =
    let x = q mod na and y = q / na in
    (col_factor.Collinear.position.(y), row_factor.Collinear.position.(x))
  in
  { pn; rows = nb; cols = na; qplace; intra }

(* one inter-cluster link = (quotient edge id, parallel index); [qe] is
   re-assigned as a unique link id once all links are collected *)
type link = {
  mutable qe : int;
  par : int;
  qa : int;  (* quotient node at the smaller line coordinate *)
  qb : int;
  pa : int;  (* attach position inside cluster qa *)
  pb : int;
  la : int;  (* line coordinate (col for row links / row for col links) *)
  lb : int;
  mutable track : int;
}

let ceil_div a b = if a = 0 then 0 else ((a - 1) / b) + 1

let realize spec ~layers =
  let { pn; rows; cols; qplace; intra } = spec in
  let g = Multilayer.groups_for_layers layers in
  let quotient = pn.Pn_cluster.quotient in
  let qn = Graph.n quotient in
  if rows * cols <> qn then invalid_arg "Cluster_expand.realize: grid size";
  let qpos = Array.init qn qplace in
  let node_at = Array.make_matrix rows cols (-1) in
  Array.iteri
    (fun q (r, c) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg "Cluster_expand.realize: placement out of grid";
      if node_at.(r).(c) >= 0 then
        invalid_arg "Cluster_expand.realize: two clusters on one cell";
      node_at.(r).(c) <- q)
    qpos;
  let csize = pn.Pn_cluster.cluster_size in
  let mult = pn.Pn_cluster.multiplicity in
  (* --- classify inter-cluster links ------------------------------- *)
  let row_links = Array.make rows [] and col_links = Array.make cols [] in
  Graph.iter_edges quotient (fun qu qv ->
      for par = 0 to mult - 1 do
        let pu, pv = pn.Pn_cluster.attach (qu, qv) par in
        let ru, cu = qpos.(qu) and rv, cv = qpos.(qv) in
        if ru = rv && cu <> cv then begin
          let (qa, pa, la), (qb, pb, lb) =
            if cu < cv then ((qu, pu, cu), (qv, pv, cv))
            else ((qv, pv, cv), (qu, pu, cu))
          in
          row_links.(ru) <-
            { qe = 0; par; qa; qb; pa; pb; la; lb; track = -1 }
            :: row_links.(ru)
        end
        else if cu = cv && ru <> rv then begin
          let (qa, pa, la), (qb, pb, lb) =
            if ru < rv then ((qu, pu, ru), (qv, pv, rv))
            else ((qv, pv, rv), (qu, pu, ru))
          in
          col_links.(cu) <-
            { qe = 0; par; qa; qb; pa; pb; la; lb; track = -1 }
            :: col_links.(cu)
        end
        else
          invalid_arg
            (Printf.sprintf
               "Cluster_expand: quotient edge %d-%d is not grid-aligned" qu qv)
      done);
  (* --- pack quotient tracks --------------------------------------- *)
  let pack links =
    let arr = Array.of_list links in
    let spans = Array.map (fun l -> Interval.make l.la l.lb) arr in
    let assignment = Track_assign.greedy spans in
    Array.iteri (fun i l -> l.track <- assignment.(i)) arr;
    (arr, Track_assign.count_tracks assignment)
  in
  let row_tracks = Array.make rows 0 and col_tracks = Array.make cols 0 in
  let row_links =
    Array.mapi
      (fun r links ->
        let arr, t = pack links in
        row_tracks.(r) <- t;
        arr)
      row_links
  in
  let col_links =
    Array.mapi
      (fun c links ->
        let arr, t = pack links in
        col_tracks.(c) <- t;
        arr)
      col_links
  in
  (* --- per-cluster external link lists ----------------------------- *)
  (* for each quotient node: its row links and column links *)
  let ext_row = Array.make qn [] and ext_col = Array.make qn [] in
  Array.iter
    (Array.iter (fun l ->
         ext_row.(l.qa) <- l :: ext_row.(l.qa);
         ext_row.(l.qb) <- l :: ext_row.(l.qb)))
    row_links;
  Array.iter
    (Array.iter (fun l ->
         ext_col.(l.qa) <- l :: ext_col.(l.qa);
         ext_col.(l.qb) <- l :: ext_col.(l.qb)))
    col_links;
  (* how many external links attach to cluster position p (maximum over
     clusters), to size the node bands *)
  let ext_at = Array.make csize 0 in
  (* per (cluster, position) external-link count, flat at [q * csize + p] *)
  let per_cluster_ext_at = Array.make (qn * csize) 0 in
  let bump q p =
    let key = (q * csize) + p in
    let v = per_cluster_ext_at.(key) + 1 in
    per_cluster_ext_at.(key) <- v;
    if v > ext_at.(p) then ext_at.(p) <- v
  in
  for q = 0 to qn - 1 do
    List.iter (fun l -> bump q (if l.qa = q then l.pa else l.pb)) ext_row.(q);
    List.iter (fun l -> bump q (if l.qa = q then l.pa else l.pb)) ext_col.(q)
  done;
  (* --- block geometry ----------------------------------------------- *)
  let intra_deg p = Graph.degree pn.Pn_cluster.intra p in
  (* width of the band of cluster position p (same in every block) *)
  let band_w = Array.init csize (fun p -> intra_deg p + ext_at.(p) + 2) in
  (* x offset of each cluster position's band, ordered by the intra
     layout's positions *)
  let band_x0 = Array.make csize 0 in
  let cursor = ref 0 in
  Array.iter
    (fun p ->
      band_x0.(p) <- !cursor;
      cursor := !cursor + band_w.(p))
    intra.Collinear.node_at;
  let max_row_ext = ref 0 and max_ext_total = ref 0 in
  for q = 0 to qn - 1 do
    let nr = List.length ext_row.(q) and nc = List.length ext_col.(q) in
    if nr > !max_row_ext then max_row_ext := nr;
    if nr + nc > !max_ext_total then max_ext_total := nr + nc
  done;
  let drop_strip = !max_row_ext in
  let block_w = !cursor + drop_strip + 1 in
  let node_h = 2 in
  let intra_slots = ceil_div intra.Collinear.tracks g.Multilayer.horizontal in
  let jog_channel = !max_ext_total in
  let block_h = node_h + intra_slots + jog_channel + 2 in
  (* --- grid frame ---------------------------------------------------- *)
  let row_slots = Array.map (fun t -> ceil_div t g.Multilayer.horizontal) row_tracks in
  let col_slots = Array.map (fun t -> ceil_div t g.Multilayer.vertical) col_tracks in
  let col_x0 = Array.make cols 0 and row_y0 = Array.make rows 0 in
  for c = 1 to cols - 1 do
    col_x0.(c) <- col_x0.(c - 1) + block_w + col_slots.(c - 1) + 1
  done;
  for r = 1 to rows - 1 do
    row_y0.(r) <- row_y0.(r - 1) + block_h + row_slots.(r - 1) + 1
  done;
  let vtrack_x c slot = col_x0.(c) + block_w + slot in
  let htrack_y r slot = row_y0.(r) + block_h + slot in
  (* --- per-cluster terminal/jog/drop assignment ---------------------- *)
  (* expanded node id *)
  let xnode q p = (q * csize) + p in
  let n_expanded = Graph.n pn.Pn_cluster.graph in
  (* top terminal x of expanded nodes: intra edges first (sorted by the
     other endpoint's intra position), then external links *)
  let intra_edges = Graph.edges pn.Pn_cluster.intra in
  let n_intra_edges = Array.length intra_edges in
  (* (cluster, intra edge id) -> its two endpoint terminal x's, flat at
     [2 * (q * n_intra_edges + ie)]; -1 while unassigned *)
  let term_intra = Array.make (Int.max 1 (2 * qn * n_intra_edges)) (-1) in
  let add_term_intra q ie x =
    let k = 2 * ((q * n_intra_edges) + ie) in
    if term_intra.(k) < 0 then term_intra.(k) <- x else term_intra.(k + 1) <- x
  in
  (* per (cluster, position): next free terminal slot *)
  let used = Array.make (qn * csize) 0 in
  let next_slot q p =
    let key = (q * csize) + p in
    let v = used.(key) in
    used.(key) <- v + 1;
    if v >= band_w.(p) - 2 then
      invalid_arg "Cluster_expand: terminal capacity exceeded";
    v
  in
  let bx q = col_x0.(snd qpos.(q)) and by q = row_y0.(fst qpos.(q)) in
  let term_x q p slot = bx q + band_x0.(p) + 1 + slot in
  (* intra terminals, sorted per (cluster-position) by other endpoint's
     intra position *)
  let by_pos = Array.make csize [] in
  Array.iteri
    (fun ie (p1, p2) ->
      by_pos.(p1) <- (intra.Collinear.position.(p2), ie, p1) :: by_pos.(p1);
      by_pos.(p2) <- (intra.Collinear.position.(p1), ie, p2) :: by_pos.(p2))
    intra_edges;
  let by_pos =
    Array.map
      (List.sort (fun (a1, a2, a3) (b1, b2, b3) ->
           let c = Int.compare a1 b1 in
           if c <> 0 then c
           else
             let c = Int.compare a2 b2 in
             if c <> 0 then c else Int.compare a3 b3))
      by_pos
  in
  for q = 0 to qn - 1 do
    Array.iteri
      (fun p sorted ->
        List.iter
          (fun (_, ie, _) ->
            let slot = next_slot q p in
            add_term_intra q ie (term_x q p slot))
          sorted)
      by_pos
  done;
  (* give every link a unique id (stored in the spare [qe] field) *)
  let all_links =
    Array.concat (Array.to_list row_links @ Array.to_list col_links)
  in
  Array.iteri (fun i l -> l.qe <- i) all_links;
  (* l.qe now doubles as the link's unique id; the per-endpoint tables
     are flat at [2 * uid + (at_a ? 1 : 0)] *)
  let n_links = Array.length all_links in
  let lkey uid at_a = (2 * uid) + if at_a then 1 else 0 in
  let term_of_link = Array.make (Int.max 1 (2 * n_links)) (-1) in
  let jog_of_link = Array.make (Int.max 1 (2 * n_links)) (-1) in
  let drop_of_link = Array.make (Int.max 1 (2 * n_links)) (-1) in
  (* row links only, for [drop_of_link] *)
  for q = 0 to qn - 1 do
    (* jogs: column links first, sorted by other endpoint row (their jog
       order fixes track-span disjointness); then row links *)
    let link_cmp l1 l2 =
      let other l = if l.qa = q then l.lb else l.la in
      let c = Int.compare (other l1) (other l2) in
      if c <> 0 then c else Int.compare l1.qe l2.qe
    in
    let col_sorted = List.sort link_cmp ext_col.(q) in
    let jog_y0 = by q + node_h + intra_slots + 1 in
    List.iteri
      (fun j l -> jog_of_link.(lkey l.qe (l.qa = q)) <- jog_y0 + j)
      col_sorted;
    let row_list = ext_row.(q) in
    List.iteri
      (fun j l ->
        jog_of_link.(lkey l.qe (l.qa = q)) <-
          jog_y0 + List.length col_sorted + j)
      row_list;
    (* drops: row links sorted by other endpoint column *)
    let row_sorted = List.sort link_cmp row_list in
    let drop_x0 = bx q + block_w - 1 - drop_strip in
    List.iteri
      (fun j l -> drop_of_link.(lkey l.qe (l.qa = q)) <- drop_x0 + j)
      row_sorted;
    (* terminals for both kinds *)
    List.iter
      (fun l ->
        let p = if l.qa = q then l.pa else l.pb in
        let slot = next_slot q p in
        term_of_link.(lkey l.qe (l.qa = q)) <- term_x q p slot)
      (ext_row.(q) @ ext_col.(q))
  done;
  (* --- footprints ----------------------------------------------------- *)
  let graph_edges = Graph.edges pn.Pn_cluster.graph in
  let b =
    Geom.Builder.create ~n_nodes:n_expanded
      ~n_wires:(Array.length graph_edges)
  in
  for u = 0 to n_expanded - 1 do
    let q = u / csize and p = u mod csize in
    let x0 = bx q + band_x0.(p) and y0 = by q in
    Geom.Builder.set_node b u ~x0 ~y0 ~x1:(x0 + band_w.(p) - 1)
      ~y1:(y0 + node_h - 1)
  done;
  (* --- wires ----------------------------------------------------------- *)
  (* keyed [u * n + v] with u < v *)
  let edge_id = Hashtbl.create (Array.length graph_edges) in
  Array.iteri
    (fun i (u, v) -> Hashtbl.add edge_id ((u * n_expanded) + v) i)
    graph_edges;
  let find_edge u v =
    let u, v = if u < v then (u, v) else (v, u) in
    match Hashtbl.find_opt edge_id ((u * n_expanded) + v) with
    | Some i -> i
    | None -> invalid_arg "Cluster_expand: expanded edge not found"
  in
  let pt x y z = (x, y, z) in
  let route_wire id points =
    let u, v = graph_edges.(id) in
    Geom.Builder.start_wire b ~id ~u ~v;
    List.iter (fun (x, y, z) -> Geom.Builder.point b ~x ~y ~z) points
  in
  let zy_for grp = if (2 * grp) + 2 <= layers then (2 * grp) + 2 else 2 * grp in
  (* intra edges: precompute track per intra edge id *)
  let intra_track = Array.make (Array.length intra_edges) (-1) in
  Array.iter
    (fun (e : Collinear.edge) ->
      let key = if e.u < e.v then (e.u, e.v) else (e.v, e.u) in
      Array.iteri
        (fun ie edge -> if edge = key then intra_track.(ie) <- e.track)
        intra_edges)
    intra.Collinear.edges;
  Array.iter
    (fun t -> if t < 0 then invalid_arg "Cluster_expand: intra track missing")
    intra_track;
  for q = 0 to qn - 1 do
    Array.iteri
      (fun ie (p1, p2) ->
        let track = intra_track.(ie) in
        let islots = Int.max 1 intra_slots in
        let grp = track / islots and slot = track mod islots in
        let zx = (2 * grp) + 1 and zy = zy_for grp in
        let ytrack = by q + node_h + slot in
        let ytop = by q + node_h - 1 in
        let t1, t2 =
          let k = 2 * ((q * n_intra_edges) + ie) in
          let a = term_intra.(k) and b = term_intra.(k + 1) in
          if a < 0 || b < 0 then
            invalid_arg "Cluster_expand: intra terminals"
          else (Int.min a b, Int.max a b)
        in
        route_wire
          (find_edge (xnode q p1) (xnode q p2))
          [
            pt t1 ytop 1;
            pt t1 ytop zy;
            pt t1 ytrack zy;
            pt t1 ytrack zx;
            pt t2 ytrack zx;
            pt t2 ytrack zy;
            pt t2 ytop zy;
            pt t2 ytop 1;
          ])
      intra_edges
  done;
  (* row links *)
  Array.iteri
    (fun r links ->
      Array.iter
        (fun l ->
          let slots = Int.max 1 row_slots.(r) in
          let grp = l.track / slots and slot = l.track mod slots in
          let zx = (2 * grp) + 1 and zy = zy_for grp in
          let ytrack = htrack_y r slot in
          let ta = term_of_link.(lkey l.qe true)
          and tb = term_of_link.(lkey l.qe false) in
          let ja = jog_of_link.(lkey l.qe true)
          and jb = jog_of_link.(lkey l.qe false) in
          let da = drop_of_link.(lkey l.qe true)
          and db = drop_of_link.(lkey l.qe false) in
          let ytop_a = by l.qa + node_h - 1 and ytop_b = by l.qb + node_h - 1 in
          route_wire
            (find_edge (xnode l.qa l.pa) (xnode l.qb l.pb))
            [
              pt ta ytop_a 1;
              pt ta ytop_a zy;
              pt ta ja zy;
              pt ta ja zx;
              pt da ja zx;
              pt da ja zy;
              pt da ytrack zy;
              pt da ytrack zx;
              pt db ytrack zx;
              pt db ytrack zy;
              pt db jb zy;
              pt db jb zx;
              pt tb jb zx;
              pt tb jb zy;
              pt tb ytop_b zy;
              pt tb ytop_b 1;
            ])
        links)
    row_links;
  (* column links *)
  Array.iteri
    (fun c links ->
      Array.iter
        (fun l ->
          let slots = Int.max 1 col_slots.(c) in
          let grp = l.track / slots and slot = l.track mod slots in
          let zx = (2 * grp) + 1 and zv = (2 * grp) + 2 in
          let xtrack = vtrack_x c slot in
          let ta = term_of_link.(lkey l.qe true)
          and tb = term_of_link.(lkey l.qe false) in
          let ja = jog_of_link.(lkey l.qe true)
          and jb = jog_of_link.(lkey l.qe false) in
          let ytop_a = by l.qa + node_h - 1 and ytop_b = by l.qb + node_h - 1 in
          route_wire
            (find_edge (xnode l.qa l.pa) (xnode l.qb l.pb))
            [
              pt ta ytop_a 1;
              pt ta ytop_a zv;
              pt ta ja zv;
              pt ta ja zx;
              pt xtrack ja zx;
              pt xtrack ja zv;
              pt xtrack jb zv;
              pt xtrack jb zx;
              pt tb jb zx;
              pt tb jb zv;
              pt tb ytop_b zv;
              pt tb ytop_b 1;
            ])
        links)
    col_links;
  (* Geom.Builder.build raises on any edge left unrouted *)
  Layout.of_geom ~graph:pn.Pn_cluster.graph ~layers (Geom.Builder.build b)

let metrics spec ~layers = Layout.metrics (realize spec ~layers)
