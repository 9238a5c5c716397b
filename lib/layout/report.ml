type t = {
  metrics : Layout.metrics;
  node_area : int;
  node_area_share : float;
  wire_count : int;
  wire_min : int;
  wire_median : int;
  wire_p90 : int;
  wire_max : int;
  segments_per_layer : (int * int) list;
  via_count : int;
  active_layers : int;
}

let analyze (layout : Layout.t) =
  let metrics = Layout.metrics layout in
  let g = Layout.geom layout in
  let node_area = ref 0 in
  for i = 0 to g.Geom.n_nodes - 1 do
    node_area :=
      !node_area
      + ((g.Geom.nx1.{i} - g.Geom.nx0.{i} + 1)
        * (g.Geom.ny1.{i} - g.Geom.ny0.{i} + 1))
  done;
  let node_area = !node_area in
  let lengths =
    Array.init g.Geom.n_wires (fun i -> Geom.wire_length_xy g i)
  in
  Array.sort Int.compare lengths;
  let count = Array.length lengths in
  let pick fraction =
    if count = 0 then 0
    else
      let i = int_of_float (float_of_int count *. fraction) in
      lengths.(Int.min (count - 1) i)
  in
  (* a Hashtbl keyed by z keeps user-loaded layouts with out-of-range
     layers from crashing the report *)
  let per_layer = Hashtbl.create 16 in
  let vias = ref 0 in
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 2 do
      let dx = abs (g.Geom.px.{k + 1} - g.Geom.px.{k}) in
      let dy = abs (g.Geom.py.{k + 1} - g.Geom.py.{k}) in
      if dx = 0 && dy = 0 then incr vias
      else begin
        let z = g.Geom.pz.{k} in
        Hashtbl.replace per_layer z
          (dx + dy + Option.value ~default:0 (Hashtbl.find_opt per_layer z))
      end
    done
  done;
  {
    metrics;
    node_area;
    node_area_share =
      (if metrics.Layout.area = 0 then 0.0
       else float_of_int node_area /. float_of_int metrics.Layout.area);
    wire_count = count;
    wire_min = (if count = 0 then 0 else lengths.(0));
    wire_median = pick 0.5;
    wire_p90 = pick 0.9;
    wire_max = (if count = 0 then 0 else lengths.(count - 1));
    segments_per_layer =
      Hashtbl.fold (fun z len acc -> (z, len) :: acc) per_layer []
      |> List.sort (fun (za, la) (zb, lb) ->
             let c = Int.compare za zb in
             if c <> 0 then c else Int.compare la lb);
    via_count = !vias;
    active_layers = Layout.active_layers layout;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "bounding box : %dx%d = %d@," t.metrics.Layout.width
    t.metrics.Layout.height t.metrics.Layout.area;
  Format.fprintf ppf "volume       : %d over %d layers (%d active)@,"
    t.metrics.Layout.volume t.metrics.Layout.layers t.active_layers;
  Format.fprintf ppf "node area    : %d (%.1f%% of the box)@," t.node_area
    (100.0 *. t.node_area_share);
  Format.fprintf ppf "wires        : %d, lengths min/med/p90/max = %d/%d/%d/%d@,"
    t.wire_count t.wire_min t.wire_median t.wire_p90 t.wire_max;
  Format.fprintf ppf "vias         : %d cuts, %d total height@," t.via_count
    t.metrics.Layout.vias;
  Format.fprintf ppf "run length per layer:@,";
  List.iter
    (fun (z, len) -> Format.fprintf ppf "  layer %2d : %d@," z len)
    t.segments_per_layer;
  Format.fprintf ppf "@]"
