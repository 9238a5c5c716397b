open Mvl_topology
open Mvl_geometry

type placement = {
  nodes : Rect.t array;
  width : int;
  height : int;
  layers : int;
}

let grid_placement graph ~rows ~cols ~margin ~layers =
  let n = Graph.n graph in
  if rows * cols < n then invalid_arg "Maze_router.grid_placement: grid too small";
  let side = Int.max 3 (Graph.max_degree graph + 2) in
  let pitch = side + margin in
  let nodes =
    Array.init n (fun u ->
        let r = u / cols and c = u mod cols in
        let x0 = margin + (c * pitch) and y0 = margin + (r * pitch) in
        Rect.make ~x0 ~y0 ~x1:(x0 + side - 1) ~y1:(y0 + side - 1))
  in
  {
    nodes;
    width = (cols * pitch) + margin;
    height = (rows * pitch) + margin;
    layers;
  }

(* point encoding: ((z-1) * height + y) * width + x *)
let route graph placement =
  let w = placement.width and h = placement.height and l = placement.layers in
  if l < 2 then invalid_arg "Maze_router.route: layers < 2";
  let plane = w * h in
  let total = plane * l in
  let encode x y z = (((z - 1) * h) + y) * w + x in
  (* layer-1 footprint ownership: -1 = free space *)
  let owner = Array.make plane (-1) in
  Array.iteri
    (fun id (r : Rect.t) ->
      if r.Rect.x1 >= w || r.Rect.y1 >= h then
        invalid_arg "Maze_router.route: node outside canvas";
      for y = r.Rect.y0 to r.Rect.y1 do
        for x = r.Rect.x0 to r.Rect.x1 do
          owner.((y * w) + x) <- id
        done
      done)
    placement.nodes;
  let used = Bytes.make total '\000' in
  let is_used p = Bytes.get used p <> '\000' in
  let mark_used p = Bytes.set used p '\001' in
  (* BFS state, reused across nets via version stamping *)
  let seen = Array.make total 0 in
  let prev = Array.make total (-1) in
  let version = ref 0 in
  let queue = Queue.create () in
  let boundary_points node =
    let r = placement.nodes.(node) in
    let pts = ref [] in
    for x = r.Rect.x0 to r.Rect.x1 do
      pts := (x, r.Rect.y0) :: (x, r.Rect.y1) :: !pts
    done;
    for y = r.Rect.y0 + 1 to r.Rect.y1 - 1 do
      pts := (r.Rect.x0, y) :: (r.Rect.x1, y) :: !pts
    done;
    !pts
  in
  (* passable interior point: free space (layer >= 2 passes over nodes) *)
  let passable x y z =
    is_used (encode x y z) = false
    && (z > 1 || owner.((y * w) + x) < 0)
  in
  let route_net u v =
    incr version;
    Queue.clear queue;
    let stamp = !version in
    List.iter
      (fun (x, y) ->
        let p = encode x y 1 in
        if not (is_used p) then begin
          seen.(p) <- stamp;
          prev.(p) <- -1;
          Queue.add p queue
        end)
      (boundary_points u);
    let target = Hashtbl.create 32 in
    List.iter
      (fun (x, y) ->
        let p = encode x y 1 in
        if not (is_used p) then Hashtbl.replace target p ())
      (boundary_points v);
    if Queue.is_empty queue || Hashtbl.length target = 0 then None
    else begin
      let found = ref (-1) in
      while !found < 0 && not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        if Hashtbl.mem target p then found := p
        else begin
          let x = p mod w in
          let y = p / w mod h in
          let z = 1 + (p / plane) in
          let try_step x' y' z' =
            if
              x' >= 0 && x' < w && y' >= 0 && y' < h && z' >= 1 && z' <= l
            then begin
              let q = encode x' y' z' in
              if seen.(q) <> stamp then begin
                (* a target point is enterable even though it sits on a
                   node boundary; other footprint points are not *)
                let ok =
                  (not (is_used q))
                  && (Hashtbl.mem target q || passable x' y' z')
                in
                if ok then begin
                  seen.(q) <- stamp;
                  prev.(q) <- p;
                  Queue.add q queue
                end
              end
            end
          in
          (* direction discipline: x on odd layers, y on even, z always *)
          if z mod 2 = 1 then begin
            try_step (x - 1) y z;
            try_step (x + 1) y z
          end
          else begin
            try_step x (y - 1) z;
            try_step x (y + 1) z
          end;
          try_step x y (z - 1);
          try_step x y (z + 1)
        end
      done;
      if !found < 0 then None
      else begin
        (* walk back, mark used, build the polyline *)
        let rec collect p acc =
          let acc = p :: acc in
          if prev.(p) < 0 then acc else collect prev.(p) acc
        in
        let path = collect !found [] in
        List.iter mark_used path;
        let points =
          List.map
            (fun p ->
              Point.make ~x:(p mod w) ~y:(p / w mod h) ~z:(1 + (p / plane)))
            path
        in
        Some points
      end
    end
  in
  (* route short nets first *)
  let edges = Graph.edges graph in
  let order = Array.init (Array.length edges) (fun i -> i) in
  let dist (u, v) =
    let ru = placement.nodes.(u) and rv = placement.nodes.(v) in
    abs (ru.Rect.x0 - rv.Rect.x0) + abs (ru.Rect.y0 - rv.Rect.y0)
  in
  Array.sort (fun a b -> Int.compare (dist edges.(a)) (dist edges.(b))) order;
  let wires = Array.make (Array.length edges) None in
  let ok = ref true in
  Array.iter
    (fun i ->
      if !ok then begin
        let u, v = edges.(i) in
        match route_net u v with
        (* the checker accepts either endpoint orientation, so the wire
           can keep the canonical (u < v) edge label *)
        | Some points -> wires.(i) <- Some (Wire.make ~edge:edges.(i) points)
        | None -> ok := false
      end)
    order;
  if not !ok then None
  else begin
    let wires =
      Array.map (function Some w -> w | None -> assert false) wires
    in
    Some
      (Layout.make ~graph ~layers:placement.layers ~nodes:placement.nodes
         ~wires ())
  end

let route_or_grow ?(max_attempts = 4) graph ~rows ~cols ~layers =
  let rec go attempt margin =
    if attempt >= max_attempts then None
    else begin
      let placement = grid_placement graph ~rows ~cols ~margin ~layers in
      match route graph placement with
      | Some layout -> Some layout
      | None -> go (attempt + 1) (margin * 2)
    end
  in
  go 0 2
