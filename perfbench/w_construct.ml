(* construct-catalog: one mid-size instance of every registered family
   at L = 2, 4 and 8, through build -> layout -> metrics -> encode with
   no verification and no layout cache.  The construction engines and
   Telemetry do all the work; the verifier does none. *)
open Mvl_core
open Common

(* One instance per registry entry, 10^3..10^4 nodes each, except the
   complete graph: K_N has N^2/2 wires, so K_256 already carries more
   wiring than any other entry.  The seed picks the enhanced cube's
   extra links and the order entries are visited in. *)
let instances ~seed =
  [
    "hypercube:11"; "kary:4:5"; "torus:32:32"; "mesh:32:32"; "ghc:4:5";
    "complete:256"; "hsn:3:10"; "hhn:2:5"; "ccc:8"; "rh:8";
    "butterfly:5:3"; "isn:5:3"; "folded:10";
    Printf.sprintf "enhanced:10:%d" (seed land 0xffff);
    "karycluster:8:2:16"; "star:7"; "pancake:7"; "bubble:7";
    "transposition:7"; "scc:6"; "shuffle:10"; "debruijn:10"; "tree:10";
  ]

let layer_counts = [ 2; 4; 8 ]

let entries ~seed =
  let all =
    List.concat_map
      (fun s -> List.map (fun l -> (s, l)) layer_counts)
      (instances ~seed)
    |> Array.of_list
  in
  let rng = Mvl.Rng.create ~seed in
  for i = Array.length all - 1 downto 1 do
    let j = Mvl.Rng.int rng ~bound:(i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  all

(* order-sensitive hash of every geometry column actually in use *)
let digest lay =
  let g = Mvl.Layout.geom lay in
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x100000001b3 land max_int in
  let col c n =
    mix n;
    for i = 0 to n - 1 do
      mix (Bigarray.Array1.unsafe_get c i)
    done
  in
  let open Mvl.Geom in
  List.iter (fun c -> col c g.n_nodes) [ g.nx0; g.ny0; g.nx1; g.ny1 ];
  col g.wire_off (g.n_wires + 1);
  List.iter (fun c -> col c g.n_wires) [ g.edge_u; g.edge_v ];
  List.iter (fun c -> col c g.n_points) [ g.px; g.py; g.pz ];
  mix (Mvl.Layout.layers lay);
  Array.iter mix (Mvl.Layout.node_layers lay);
  !h

type built = {
  secs : float;
  segs : int;
  bytes : int;
  area_ratio : float option;
  wire_ratio : float option;
}

(* the timed path of one entry *)
let construct (spec, layers) =
  let t0 = now () in
  let parsed =
    Span.span "registry.parse" (fun () -> Mvl.Registry.parse spec)
    |> Result.get_ok
  in
  let fam =
    Span.span "registry.build" (fun () -> Mvl.Registry.build parsed)
    |> Result.get_ok
  in
  let lay =
    Span.span "families.layout" (fun () ->
        fam.Mvl.Families.layout_jobs ~jobs:1 ~layers)
  in
  let m = Span.span "layout.metrics" (fun () -> Mvl.Layout.metrics lay) in
  let json =
    Span.span "telemetry.encode" (fun () ->
        Telemetry.to_string
          (Mvl.Pipeline.to_json
             {
               Mvl.Pipeline.spec = parsed;
               family = fam;
               layers;
               layout = lay;
               metrics = m;
               validation = None;
               report = None;
               timings = [];
               layout_phases = None;
               from_cache = false;
             }))
  in
  let secs = now () -. t0 in
  let ratio measured = function
    | Some f ->
        let p = f ~layers in
        if p > 0.0 then Some (float_of_int measured /. p) else None
    | None -> None
  in
  ( lay,
    {
      secs;
      segs = Mvl.Geom.n_segments (Mvl.Layout.geom lay);
      bytes = String.length json;
      area_ratio = ratio m.Mvl.Layout.area fam.Mvl.Families.paper_area;
      wire_ratio = ratio m.Mvl.Layout.max_wire fam.Mvl.Families.paper_max_wire;
    } )

(* set-up: the same pass, recording the reference digests.  Set-up
   runs three times; pass [k] strictly verifies every third entry from
   [k], so each layout is verified once and each digest is taken three
   times. *)
let passes = 3

let reference entries k =
  Array.mapi
    (fun i e ->
      let lay, _ = construct e in
      let valid =
        i mod passes <> k
        || (Mvl.Check.run ~mode:Mvl.Check.Strict lay).Mvl.Check.violations = []
      in
      (digest lay, valid))
    entries

let run r ~seed ~seconds ~trace =
  let entries = entries ~seed in
  let refs = setup r passes (reference entries) in
  let reference = List.hd refs in
  Array.iteri
    (fun i (d, _) ->
      let spec, l = entries.(i) in
      let valid = snd (List.nth refs (i mod passes)).(i) in
      let same = List.for_all (fun rs -> fst rs.(i) = d) refs in
      op r (Printf.sprintf "reference %s@%d" spec l) (valid && same)
        (Printf.sprintf "strict-valid=%b digest-stable=%b" valid same))
    reference;
  let round _ =
    Array.mapi
      (fun i e ->
        let lay, b = construct e in
        own "check" (fun () ->
            let d = digest lay in
            let spec, l = e in
            op r (Printf.sprintf "construct %s@%d" spec l)
              (d = fst reference.(i))
              (Printf.sprintf "digest %x, reference %x" d (fst reference.(i))));
        b)
      entries
  in
  let plain, traced = repeat ~seconds ~min_rounds:(if trace then 4 else 3) ~trace round in
  let timed_rounds = if trace then traced else plain in
  let rounds = List.map (fun rd -> rd.x) timed_rounds in
  let n = List.length rounds in
  rounds_note r timed_rounds;
  if not trace then round_s r (Array.map (fun b -> b.secs)) timed_rounds
  else begin
    layer_metrics r traced
      [
        "registry.parse";
        "registry.build";
        "families.layout";
        "layout.metrics";
        "telemetry.encode";
      ];
    let last = List.hd rounds in
    let segs = Array.fold_left (fun s b -> s + b.segs) 0 last in
    let gm f = geomean (List.filter_map f (Array.to_list last)) in
    metric r "families.area_ratio" "ratio" (gm (fun b -> b.area_ratio));
    metric r "families.max_wire_ratio" "ratio" (gm (fun b -> b.wire_ratio));
    metric r "families.mseg_per_s" "Mseg/s"
      (float_of_int (segs * n) /. Span.self_seconds "families.layout" /. 1e6);
    metric r "telemetry.bytes" "bytes"
      (float_of_int (Array.fold_left (fun s b -> s + b.bytes) 0 last));
    overhead r plain traced;
    note r "entry_seconds"
      (Telemetry.Obj
         (Array.to_list
            (Array.mapi
               (fun i b ->
                 let spec, l = entries.(i) in
                 (Printf.sprintf "%s@%d" spec l, Telemetry.Float b.secs))
               last)))
  end
