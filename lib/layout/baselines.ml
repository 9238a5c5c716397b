open Mvl_topology

let ceil_div a b = if a = 0 then 0 else ((a - 1) / b) + 1

let fold_thompson (m : Layout.metrics) ~layers =
  if m.Layout.layers <> 2 then
    invalid_arg "Baselines.fold_thompson: input must be a 2-layer layout";
  if layers < 2 || layers mod 2 <> 0 then
    invalid_arg "Baselines.fold_thompson: layers must be even";
  let slabs = layers / 2 in
  let height = ceil_div m.Layout.height slabs in
  let area = m.Layout.width * height in
  {
    m with
    Layout.height;
    area;
    layers;
    volume = layers * area;
    (* wire lengths are preserved by folding (up to negligible
       fold-crossing detours), vias roughly double per fold crossing —
       we keep the recorded value as the optimistic baseline *)
  }

let collinear_multilayer (c : Collinear.t) ~layers =
  if layers < 2 then invalid_arg "Baselines.collinear_multilayer: layers < 2";
  let groups = (layers + 1) / 2 in
  let n = Graph.n c.Collinear.graph in
  (* one column band per node, wide enough for its terminals *)
  let width = ref 0 in
  let pitch = Array.make n 0 in
  for u = 0 to n - 1 do
    pitch.(u) <- Graph.degree c.Collinear.graph u + 2;
    width := !width + pitch.(u)
  done;
  let slots = Int.max 1 (ceil_div c.Collinear.tracks groups) in
  let node_h = 2 in
  let height = node_h + slots + 1 in
  let area = !width * height in
  (* wire lengths: span in column bands times the mean pitch, plus the
     vertical run to the wire's track slot *)
  let x_of = Array.make n 0 in
  let cursor = ref 0 in
  Array.iter
    (fun u ->
      x_of.(u) <- !cursor;
      cursor := !cursor + pitch.(u))
    c.Collinear.node_at;
  let max_wire = ref 0 and total_wire = ref 0 in
  Array.iter
    (fun (e : Collinear.edge) ->
      let slot = e.track mod slots in
      let len = abs (x_of.(e.u) - x_of.(e.v)) + (2 * (slot + 1)) in
      if len > !max_wire then max_wire := len;
      total_wire := !total_wire + len)
    c.Collinear.edges;
  {
    Layout.width = !width;
    height;
    area;
    layers;
    volume = layers * area;
    max_wire = !max_wire;
    total_wire = !total_wire;
    vias = 2 * Array.length c.Collinear.edges;
  }
