open Mvl_topology
open Mvl_geometry

let collinear_ascii ?label (c : Collinear.t) =
  let label = Option.value label ~default:string_of_int in
  let n = Graph.n c.Collinear.graph in
  (* column of each position: nodes are cellw wide, 1 space apart *)
  let cellw =
    Array.fold_left
      (fun acc u -> Int.max acc (String.length (label u)))
      1 c.Collinear.node_at
    + 2
  in
  let col p = p * (cellw + 1) + (cellw / 2) in
  let width = (n * (cellw + 1)) + 1 in
  let canvas_rows = c.Collinear.tracks in
  let canvas = Array.init canvas_rows (fun _ -> Bytes.make width ' ') in
  let put row x ch =
    if x >= 0 && x < width then Bytes.set canvas.(row) x ch
  in
  (* draw tracks from the top (track tracks-1) downwards; row index 0 is
     the topmost text line *)
  Array.iter
    (fun (e : Collinear.edge) ->
      let row = canvas_rows - 1 - e.track in
      let pu = c.Collinear.position.(e.u) and pv = c.Collinear.position.(e.v) in
      let x1 = col (Int.min pu pv) in
      let x2 = col (Int.max pu pv) in
      put row x1 '+';
      put row x2 '+';
      for x = x1 + 1 to x2 - 1 do
        put row x '-'
      done;
      (* drops down to the node row *)
      for r = row + 1 to canvas_rows - 1 do
        List.iter
          (fun x ->
            let existing = Bytes.get canvas.(r) x in
            put r x (if existing = '-' then '#' else '|'))
          [ x1; x2 ]
      done)
    c.Collinear.edges;
  let rstrip s =
    let stop = ref (String.length s) in
    while !stop > 0 && s.[!stop - 1] = ' ' do
      decr stop
    done;
    String.sub s 0 !stop
  in
  let buf = Buffer.create (width * (canvas_rows + 2)) in
  Array.iter
    (fun row ->
      Buffer.add_string buf (rstrip (Bytes.to_string row));
      Buffer.add_char buf '\n')
    canvas;
  (* node row *)
  Array.iteri
    (fun p u ->
      ignore p;
      let s = label u in
      let pad = cellw - String.length s in
      Buffer.add_char buf '[';
      Buffer.add_string buf (String.make (pad / 2) ' ');
      Buffer.add_string buf s;
      Buffer.add_string buf (String.make (pad - (pad / 2)) ' ');
      Buffer.add_char buf ']')
    c.Collinear.node_at;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let layer_color z =
  let palette =
    [| "#d62728"; "#1f77b4"; "#2ca02c"; "#ff7f0e"; "#9467bd"; "#8c564b";
       "#e377c2"; "#7f7f7f"; "#bcbd22"; "#17becf" |]
  in
  palette.((z - 1) mod Array.length palette)

let layout_svg ?(scale = 4) (t : Layout.t) =
  let bbox = Layout.bounding_box t in
  let pad = 2 in
  let sx x = (x - bbox.Rect.x0 + pad) * scale in
  (* flip y so the layout's y axis points up in the image *)
  let sy y = (bbox.Rect.y1 - y + pad) * scale in
  let buf = Buffer.create 65536 in
  let w = (Rect.width bbox + (2 * pad)) * scale in
  let h = (Rect.height bbox + (2 * pad)) * scale in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\">\n<rect width=\"100%%\" height=\"100%%\" \
        fill=\"white\"/>\n"
       w h w h);
  let g = Layout.geom t in
  for id = 0 to g.Geom.n_nodes - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
          fill=\"#dddddd\" stroke=\"#555555\" stroke-width=\"1\"><title>node \
          %d</title></rect>\n"
         (sx g.Geom.nx0.{id})
         (sy g.Geom.ny1.{id})
         ((g.Geom.nx1.{id} - g.Geom.nx0.{id} + 1) * scale)
         ((g.Geom.ny1.{id} - g.Geom.ny0.{id} + 1) * scale)
         id)
  done;
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 2 do
      let xa = g.Geom.px.{k} and ya = g.Geom.py.{k} and za = g.Geom.pz.{k} in
      let xb = g.Geom.px.{k + 1} and yb = g.Geom.py.{k + 1} in
      if xa = xb && ya = yb then
        Buffer.add_string buf
          (Printf.sprintf
             "<circle cx=\"%d\" cy=\"%d\" r=\"%d\" fill=\"#222222\"/>\n"
             (sx xa) (sy ya) (Int.max 1 (scale / 3)))
      else begin
        (* draw from the lesser endpoint along the running axis, matching
           the normalization Segment.make used to apply *)
        let xa, ya, xb, yb =
          if xb < xa || yb < ya then (xb, yb, xa, ya) else (xa, ya, xb, yb)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" \
              stroke=\"%s\" stroke-width=\"%d\"/>\n"
             (sx xa) (sy ya) (sx xb) (sy yb) (layer_color za)
             (Int.max 1 (scale / 4)))
      end
    done
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let grid_summary (o : Orthogonal.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "recursive grid: %d rows x %d cols of blocks\n" o.rows
       o.cols);
  Buffer.add_string buf "horizontal tracks above each row:  ";
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf "%d " t)) o.row_tracks;
  Buffer.add_string buf "\nvertical tracks right of each col: ";
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf "%d " t)) o.col_tracks;
  Buffer.add_char buf '\n';
  Buffer.contents buf
