(* Negative tests: the verifier must actually catch broken geometry. *)
open Mvl_core

let pt x y z = Mvl.Point.make ~x ~y ~z

let two_node_graph = Mvl.Graph.of_edges ~n:2 [ (0, 1) ]

let simple_nodes =
  [|
    Mvl.Rect.make ~x0:0 ~y0:0 ~x1:2 ~y1:2;
    Mvl.Rect.make ~x0:10 ~y0:0 ~x1:12 ~y1:2;
  |]

let wire_of points = Mvl.Wire.make ~edge:(0, 1) points

(* rises from node 0's top, runs above the nodes, drops into node 1 *)
let good_layout =
  Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes:simple_nodes
    ~wires:
      [|
        wire_of
          [ pt 1 2 1; pt 1 2 2; pt 1 4 2; pt 1 4 1; pt 11 4 1; pt 11 4 2; pt 11 2 2; pt 11 2 1 ];
      |]
    ()

let rule_of_violations violations =
  List.map (fun v -> v.Mvl.Check.rule) violations

let test_good_layout_passes () =
  Alcotest.(check (list string)) "no violations" []
    (rule_of_violations (Mvl.Check.validate good_layout))

let test_layer_range () =
  let lay =
    Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes:simple_nodes
      ~wires:[| wire_of [ pt 1 2 1; pt 1 2 3; pt 11 2 3; pt 11 2 1 ] |] ()
  in
  Alcotest.(check bool) "layer overflow caught" true
    (List.mem "layer-range" (rule_of_violations (Mvl.Check.validate lay)))

let test_node_overlap () =
  let nodes =
    [| Mvl.Rect.make ~x0:0 ~y0:0 ~x1:4 ~y1:2; Mvl.Rect.make ~x0:3 ~y0:0 ~x1:7 ~y1:2 |]
  in
  let lay =
    Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes
      ~wires:[| wire_of [ pt 1 2 1; pt 1 3 1; pt 6 3 1; pt 6 2 1 ] |] ()
  in
  Alcotest.(check bool) "overlapping footprints caught" true
    (List.mem "node-overlap" (rule_of_violations (Mvl.Check.validate lay)))

let test_terminal_mismatch () =
  (* wire endpoints float in space rather than on the node boundary *)
  let lay =
    Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes:simple_nodes
      ~wires:[| wire_of [ pt 5 5 1; pt 6 5 1 ] |] ()
  in
  Alcotest.(check bool) "bad terminal caught" true
    (List.mem "terminal" (rule_of_violations (Mvl.Check.validate lay)))

let test_foreign_node_crossing () =
  (* a third node sits in the wire's path on layer 1 *)
  let graph = Mvl.Graph.of_edges ~n:3 [ (0, 1) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:2 ~y1:2;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:12 ~y1:2;
      Mvl.Rect.make ~x0:5 ~y0:0 ~x1:7 ~y1:2;
    |]
  in
  let lay =
    Mvl.Layout.make ~graph ~layers:2 ~nodes
      ~wires:[| wire_of [ pt 2 1 1; pt 10 1 1 ] |] ()
  in
  Alcotest.(check bool) "foreign node hit caught" true
    (List.mem "node-hit" (rule_of_violations (Mvl.Check.validate lay)))

let overlapping_wires_layout () =
  (* two wires sharing a horizontal run on the same layer *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:2 ~y1:2;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:12 ~y1:2;
      Mvl.Rect.make ~x0:0 ~y0:10 ~x1:2 ~y1:12;
      Mvl.Rect.make ~x0:10 ~y0:10 ~x1:12 ~y1:12;
    |]
  in
  let w1 = wire_of [ pt 1 2 1; pt 1 5 1; pt 11 5 1; pt 11 2 1 ] in
  let w2 =
    Mvl.Wire.make ~edge:(2, 3) [ pt 2 11 1; pt 5 11 1; pt 5 5 1; pt 8 5 1; pt 8 11 1; pt 10 11 1 ]
  in
  Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] ()

let test_wire_overlap () =
  let rules = rule_of_violations (Mvl.Check.validate (overlapping_wires_layout ())) in
  Alcotest.(check bool) "same-line overlap caught" true
    (List.mem "overlap" rules)

let crossing_layout () =
  (* two wires crossing at a point on the same layer *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:4 ~x1:1 ~y1:5;
      Mvl.Rect.make ~x0:10 ~y0:4 ~x1:11 ~y1:5;
      Mvl.Rect.make ~x0:4 ~y0:0 ~x1:5 ~y1:1;
      Mvl.Rect.make ~x0:4 ~y0:10 ~x1:5 ~y1:11;
    |]
  in
  (* horizontal wire through y=4.5 region: runs at y=4 between nodes *)
  let w1 = Mvl.Wire.make ~edge:(0, 1) [ pt 1 4 1; pt 10 4 1 ] in
  (* vertical wire crossing it at (4,4) on the same layer *)
  let w2 = Mvl.Wire.make ~edge:(2, 3) [ pt 4 1 1; pt 4 10 1 ] in
  Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] ()

let test_crossing_strict_vs_thompson () =
  let lay = crossing_layout () in
  Alcotest.(check bool) "strict rejects point crossing" true
    (List.mem "crossing"
       (rule_of_violations (Mvl.Check.validate ~mode:Mvl.Check.Strict lay)));
  Alcotest.(check bool) "thompson allows interior crossing" false
    (List.mem "crossing"
       (rule_of_violations (Mvl.Check.validate ~mode:Mvl.Check.Thompson lay)))

let test_knock_knee_rejected_in_thompson () =
  (* crossing exactly at a wire's bend: a knock-knee, illegal even under
     Thompson *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:4 ~x1:1 ~y1:5;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:11 ~y1:1;
      Mvl.Rect.make ~x0:4 ~y0:8 ~x1:5 ~y1:9;
      Mvl.Rect.make ~x0:6 ~y0:8 ~x1:7 ~y1:9;
    |]
  in
  (* w1 turns left->down at (4,4); w2 turns up->right at the same point:
     the arms are disjoint except for the shared bend — a knock-knee *)
  let w1 = Mvl.Wire.make ~edge:(0, 1) [ pt 1 4 1; pt 4 4 1; pt 4 0 1; pt 10 0 1 ] in
  let w2 = Mvl.Wire.make ~edge:(2, 3) [ pt 4 8 1; pt 4 4 1; pt 6 4 1; pt 6 8 1 ] in
  let lay = Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] () in
  Alcotest.(check bool) "knock-knee rejected" true
    (rule_of_violations (Mvl.Check.validate ~mode:Mvl.Check.Thompson lay) <> [])

let test_via_collision () =
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:1 ~y1:1;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:11 ~y1:1;
      Mvl.Rect.make ~x0:0 ~y0:10 ~x1:1 ~y1:11;
      Mvl.Rect.make ~x0:10 ~y0:10 ~x1:11 ~y1:11;
    |]
  in
  (* both wires drop a via at (5,5) *)
  let w1 =
    Mvl.Wire.make ~edge:(0, 1)
      [ pt 1 1 1; pt 5 1 1; pt 5 5 1; pt 5 5 2; pt 10 5 2; pt 10 1 2; pt 10 1 1 ]
  in
  let w2 =
    Mvl.Wire.make ~edge:(2, 3)
      [ pt 1 10 1; pt 5 10 1; pt 5 5 1; pt 5 5 2; pt 10 5 2; pt 10 10 2; pt 10 10 1 ]
  in
  let lay = Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] () in
  let rules = rule_of_violations (Mvl.Check.validate lay) in
  Alcotest.(check bool) "via collision caught" true
    (List.exists (fun r -> r = "via-overlap" || r = "overlap") rules)

let test_via_pierces_run () =
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:1 ~y1:1;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:11 ~y1:1;
      Mvl.Rect.make ~x0:0 ~y0:6 ~x1:1 ~y1:7;
      Mvl.Rect.make ~x0:10 ~y0:6 ~x1:11 ~y1:7;
    |]
  in
  (* w2 runs horizontally on layer 2 at y=3 passing x=5; w1 vias through
     layer 2 at (5,3) *)
  let w1 =
    Mvl.Wire.make ~edge:(0, 1)
      [ pt 1 1 1; pt 5 1 1; pt 5 3 1; pt 5 3 3; pt 10 3 3; pt 10 1 3; pt 10 1 1 ]
  in
  let w2 =
    Mvl.Wire.make ~edge:(2, 3)
      [ pt 1 6 1; pt 1 3 1; pt 1 3 2; pt 9 3 2; pt 9 6 2; pt 9 6 1; pt 10 6 1 ]
  in
  let lay = Mvl.Layout.make ~graph ~layers:3 ~nodes ~wires:[| w1; w2 |] () in
  let rules = rule_of_violations (Mvl.Check.validate lay) in
  Alcotest.(check bool) "via piercing caught" true (List.mem "via-run" rules)

let test_max_violations_limit () =
  let lay = overlapping_wires_layout () in
  let all = Mvl.Check.validate ~max_violations:1 lay in
  Alcotest.(check int) "limit respected" 1 (List.length all)

let test_truncation_flagged () =
  (* a result with exactly [max_violations] entries used to look
     complete; Check.run now says whether the cap was hit *)
  let lay = overlapping_wires_layout () in
  let capped = Mvl.Check.run ~max_violations:1 lay in
  Alcotest.(check int) "capped to one" 1
    (List.length capped.Mvl.Check.violations);
  Alcotest.(check bool) "capped result flagged truncated" true
    capped.Mvl.Check.truncated;
  let full = Mvl.Check.run lay in
  Alcotest.(check bool) "default cap not reached here" false
    full.Mvl.Check.truncated;
  Alcotest.(check bool) "mode recorded" true
    (full.Mvl.Check.mode = Mvl.Check.Strict);
  (* validate stays the plain list view of run *)
  Alcotest.(check int) "validate = run.violations"
    (List.length full.Mvl.Check.violations)
    (List.length (Mvl.Check.validate lay))

let test_sharded_matches_sequential () =
  (* the domain-sharded sweeps must reproduce the sequential result
     exactly — violations, order, truncation flag — on both a clean
     and a broken layout, at several job counts *)
  let layouts =
    [
      ("valid", Mvl.Pipeline.layout_exn ~cache:false ~layers:4 "hypercube:6");
      ("broken", overlapping_wires_layout ());
    ]
  in
  List.iter
    (fun (name, lay) ->
      let seq = Mvl.Check.run ~jobs:1 lay in
      List.iter
        (fun jobs ->
          let par = Mvl.Check.run ~jobs lay in
          Alcotest.(check bool)
            (Printf.sprintf "%s identical at jobs=%d" name jobs)
            true (par = seq))
        [ 2; 4; 7 ];
      (* the cap behaves identically too *)
      let seq1 = Mvl.Check.run ~jobs:1 ~max_violations:1 lay in
      let par1 = Mvl.Check.run ~jobs:4 ~max_violations:1 lay in
      Alcotest.(check bool)
        (Printf.sprintf "%s capped result identical" name)
        true (par1 = seq1))
    layouts


(* --- brute-force oracle ---------------------------------------------- *)

(* A violation reduced to (rule, a, b): the two wires or nodes it names
   (b = -1 for single-wire rules), unordered where the rule is
   symmetric.  Coordinates and report order are left out, so the sweep
   verifier and the quadratic reference below can be compared as
   sets. *)
module Keys = Set.Make (struct
  type t = string * int * int

  let compare = compare
end)

let key_of (v : Mvl.Check.violation) =
  let d = v.Mvl.Check.detail and rule = v.Mvl.Check.rule in
  let pair a b = (rule, min a b, max a b) in
  match rule with
  | "layer-range" | "edge-mismatch" | "terminal" ->
      Scanf.sscanf d "wire %d" (fun w -> (rule, w, -1))
  | "node-overlap" -> Scanf.sscanf d "nodes %d and %d" pair
  | "node-hit" ->
      Scanf.sscanf d "wire %d (%d-%d) %[a-z ]%d" (fun w _ _ _ n -> (rule, w, n))
  | "overlap" ->
      Scanf.sscanf d "%s runs of wires %d and %d" (fun _ a b -> pair a b)
  | "crossing" -> Scanf.sscanf d "wires %d and %d" pair
  | "via-overlap" -> Scanf.sscanf d "vias of wires %d and %d" pair
  | "via-run" ->
      Scanf.sscanf d "via of wire %d pierces run of wire %d" (fun a b ->
          (rule, a, b))
  | _ -> Alcotest.failf "unknown rule %s" rule

let check_keys ~jobs lay =
  let r = Mvl.Check.run ~max_violations:10_000 ~jobs lay in
  if r.Mvl.Check.truncated then Alcotest.fail "violation report truncated";
  Keys.of_list (List.map key_of r.Mvl.Check.violations)

type seg = { w : int; a : Mvl.Point.t; b : Mvl.Point.t }

(* every rule by definition, over all pairs of segments and nodes *)
let oracle lay =
  let open Mvl.Point in
  let keys = ref Keys.empty in
  let add rule a b = keys := Keys.add (rule, a, b) !keys in
  let layers = Mvl.Layout.layers lay in
  let nodes = Mvl.Layout.nodes lay and zl = Mvl.Layout.node_layers lay in
  let wires = Mvl.Layout.wires lay in
  let edges = Mvl.Graph.edges (Mvl.Layout.graph lay) in
  let segs =
    List.concat
      (List.mapi
         (fun w (wr : Mvl.Wire.t) ->
           let p = wr.Mvl.Wire.points in
           List.init
             (Array.length p - 1)
             (fun k -> { w; a = p.(k); b = p.(k + 1) }))
         (Array.to_list wires))
  in
  let lo s f = min (f s.a) (f s.b) and hi s f = max (f s.a) (f s.b) in
  let is_h s = s.a.x <> s.b.x and is_v s = s.a.y <> s.b.y in
  let is_via s = s.a.z <> s.b.z in
  let getx p = p.x and gety p = p.y and getz p = p.z in
  let inside v l h = l <= v && v <= h in
  Array.iteri
    (fun w (wr : Mvl.Wire.t) ->
      if Array.exists (fun p -> p.z < 1 || p.z > layers) wr.Mvl.Wire.points then
        add "layer-range" w (-1))
    wires;
  Array.iteri
    (fun a (ra : Mvl.Rect.t) ->
      Array.iteri
        (fun b (rb : Mvl.Rect.t) ->
          if
            a < b && zl.(a) = zl.(b)
            && max ra.x0 rb.x0 <= min ra.x1 rb.x1
            && max ra.y0 rb.y0 <= min ra.y1 rb.y1
          then add "node-overlap" a b)
        nodes)
    nodes;
  Array.iteri
    (fun w (wr : Mvl.Wire.t) ->
      let u, v = wr.Mvl.Wire.edge in
      if (u, v) <> edges.(w) then add "edge-mismatch" w (-1);
      let first, last = Mvl.Wire.endpoints wr in
      let on_boundary p n =
        let r = nodes.(n) in
        p.z = zl.(n)
        && Mvl.Rect.contains r ~x:p.x ~y:p.y
        && not (Mvl.Rect.contains_interior r ~x:p.x ~y:p.y)
      in
      if
        not
          ((on_boundary first u && on_boundary last v)
          || (on_boundary first v && on_boundary last u))
      then add "terminal" w (-1))
    wires;
  List.iter
    (fun s ->
      let u, v = wires.(s.w).Mvl.Wire.edge in
      let first, last = Mvl.Wire.endpoints wires.(s.w) in
      let hit n ~single p =
        if n <> u && n <> v then add "node-hit" s.w n
        else if not (single && (equal p first || equal p last)) then
          add "node-hit" s.w n
      in
      Array.iteri
        (fun n (r : Mvl.Rect.t) ->
          if is_h s then begin
            let l = max (lo s getx) r.x0 and h = min (hi s getx) r.x1 in
            if zl.(n) = s.a.z && inside s.a.y r.y0 r.y1 && l <= h then
              hit n ~single:(l = h) (make ~x:l ~y:s.a.y ~z:s.a.z)
          end
          else if is_v s then begin
            let l = max (lo s gety) r.y0 and h = min (hi s gety) r.y1 in
            if zl.(n) = s.a.z && inside s.a.x r.x0 r.x1 && l <= h then
              hit n ~single:(l = h) (make ~x:s.a.x ~y:l ~z:s.a.z)
          end
          else if
            inside zl.(n) (lo s getz) (hi s getz)
            && Mvl.Rect.contains r ~x:s.a.x ~y:s.a.y
          then hit n ~single:true (make ~x:s.a.x ~y:s.a.y ~z:zl.(n)))
        nodes)
    segs;
  (* the point of in-plane segment [r] at (x, y), if it lies on it *)
  let on_run r x y =
    if is_h r then r.a.y = y && inside x (lo r getx) (hi r getx)
    else r.a.x = x && inside y (lo r gety) (hi r gety)
  in
  List.iter
    (fun s ->
      List.iter
        (fun t ->
          if s.w <> t.w then begin
            let same_line f g =
              s.a.z = t.a.z && f s.a = f t.a && g s.a = g t.a
            in
            let meet f = max (lo s f) (lo t f) <= min (hi s f) (hi t f) in
            if is_h s && is_h t && same_line gety getz && meet getx then
              add "overlap" (min s.w t.w) (max s.w t.w);
            if is_v s && is_v t && same_line getx getz && meet gety then
              add "overlap" (min s.w t.w) (max s.w t.w);
            if
              is_h s && is_v t && s.a.z = t.a.z
              && inside t.a.x (lo s getx) (hi s getx)
              && inside s.a.y (lo t gety) (hi t gety)
            then add "crossing" (min s.w t.w) (max s.w t.w);
            if
              is_via s && is_via t && s.a.x = t.a.x && s.a.y = t.a.y
              && meet getz
            then
              add "via-overlap" (min s.w t.w) (max s.w t.w);
            if
              is_via s && (not (is_via t))
              && inside t.a.z (lo s getz) (hi s getz)
              && on_run t s.a.x s.a.y
            then add "via-run" s.w t.w
          end)
        segs)
    segs;
  !keys

(* plus one 3-D grid layout, whose nodes sit on several active layers *)
let oracle_bases =
  List.concat_map
    (fun spec ->
      List.map
        (fun layers ->
          ( Printf.sprintf "%s L=%d" spec layers,
            lazy (Mvl.Pipeline.layout_exn ~cache:false ~layers spec) ))
        [ 2; 4 ])
    [ "hypercube:4"; "kary:3:2"; "ccc:3" ]
  @ [
      ( "3-D hypercube:4",
        lazy
          (Mvl.Multilayer3d.hypercube ~n:4 ~active:2 ~layers_per_slab:2)
            .Mvl.Multilayer3d.layout );
    ]

let relayout lay ?(nodes = Mvl.Layout.nodes lay) wires =
  Mvl.Layout.make ~graph:(Mvl.Layout.graph lay) ~layers:(Mvl.Layout.layers lay)
    ~node_layers:(Mvl.Layout.node_layers lay) ~nodes ~wires ()

(* one mutation of kind [kind] drawn from [rng]: a wire shifted by up
   to two tracks, one edge given another's route, a via detour inserted
   at a wire vertex, or a node footprint nudged by up to two *)
let mutate lay kind rng =
  let wires = Array.copy (Mvl.Layout.wires lay) in
  let nw = Array.length wires in
  let small () =
    let d = Random.State.int rng 5 - 2 in
    if d = 0 then 1 else d
  in
  match kind with
  | 0 ->
      let i = Random.State.int rng nw in
      let dx = small () and dy = Random.State.int rng 5 - 2 in
      wires.(i) <- Test_mutations.shift_wire wires.(i) ~dx ~dy;
      relayout lay wires
  | 1 ->
      let i = Random.State.int rng nw in
      let j = (i + 1 + Random.State.int rng (nw - 1)) mod nw in
      wires.(j) <- { (wires.(i)) with Mvl.Wire.edge = wires.(j).Mvl.Wire.edge };
      relayout lay wires
  | 2 ->
      let i = Random.State.int rng nw in
      let pts = Array.to_list wires.(i).Mvl.Wire.points in
      let k = Random.State.int rng (List.length pts) in
      let p = List.nth pts k in
      let z = 1 + Random.State.int rng (Mvl.Layout.layers lay) in
      let up = Mvl.Point.make ~x:p.Mvl.Point.x ~y:p.Mvl.Point.y ~z in
      wires.(i) <-
        Mvl.Wire.make ~edge:wires.(i).Mvl.Wire.edge
          (List.concat
             (List.mapi
                (fun j q -> if j = k then [ q; up; q ] else [ q ])
                pts));
      relayout lay wires
  | _ ->
      let nodes = Array.copy (Mvl.Layout.nodes lay) in
      let a = Random.State.int rng (Array.length nodes) in
      let r = nodes.(a) and dx = small () and dy = Random.State.int rng 5 - 2 in
      nodes.(a) <-
        Mvl.Rect.make ~x0:(r.Mvl.Rect.x0 + dx) ~y0:(r.Mvl.Rect.y0 + dy)
          ~x1:(r.Mvl.Rect.x1 + dx) ~y1:(r.Mvl.Rect.y1 + dy);
      relayout lay ~nodes wires

let show keys =
  String.concat " "
    (List.map
       (fun (r, a, b) -> Printf.sprintf "%s(%d,%d)" r a b)
       (Keys.elements keys))

let test_oracle_bases () =
  List.iter
    (fun (name, lay) ->
      let lay = Lazy.force lay in
      Alcotest.(check string)
        (name ^ ": oracle finds nothing")
        "" (show (oracle lay));
      Alcotest.(check string) (name ^ ": verifier finds nothing") ""
        (show (check_keys ~jobs:1 lay)))
    oracle_bases

(* [far] also moves one wire 2^40 tracks away in x and y: its
   coordinates no longer pack into one word, so the run sort and the
   vias' (y, x) re-sort take their comparator fallbacks *)
let prop_matches_oracle =
  QCheck.Test.make ~count:150
    ~name:"Check.run = brute-force oracle on mutations"
    QCheck.(
      quad (int_bound (List.length oracle_bases - 1)) (int_bound 3) bool int)
    (fun (base, kind, far, seed) ->
      let name, lay = List.nth oracle_bases base in
      let rng = Random.State.make [| seed |] in
      let lay = mutate (Lazy.force lay) kind rng in
      let lay =
        if not far then lay
        else begin
          let wires = Array.copy (Mvl.Layout.wires lay) in
          let i = Random.State.int rng (Array.length wires) in
          let d = 1 lsl 40 in
          wires.(i) <- Test_mutations.shift_wire wires.(i) ~dx:d ~dy:d;
          relayout lay ~nodes:(Mvl.Layout.nodes lay) wires
        end
      in
      let want = show (oracle lay) in
      List.for_all
        (fun jobs ->
          let got = show (check_keys ~jobs lay) in
          got = want
          || QCheck.Test.fail_reportf
               "%s kind %d far %b jobs %d:\n got  %s\n want %s" name kind far
               jobs got want)
        [ 1; 3 ])

let suite =
  [
    Alcotest.test_case "hand-built good layout passes" `Quick
      test_good_layout_passes;
    Alcotest.test_case "layer range" `Quick test_layer_range;
    Alcotest.test_case "node overlap" `Quick test_node_overlap;
    Alcotest.test_case "terminal mismatch" `Quick test_terminal_mismatch;
    Alcotest.test_case "foreign node crossing" `Quick test_foreign_node_crossing;
    Alcotest.test_case "wire overlap" `Quick test_wire_overlap;
    Alcotest.test_case "strict vs thompson crossings" `Quick
      test_crossing_strict_vs_thompson;
    Alcotest.test_case "knock-knee in thompson" `Quick
      test_knock_knee_rejected_in_thompson;
    Alcotest.test_case "via collision" `Quick test_via_collision;
    Alcotest.test_case "via pierces run" `Quick test_via_pierces_run;
    Alcotest.test_case "violation limit" `Quick test_max_violations_limit;
    Alcotest.test_case "truncation flagged" `Quick test_truncation_flagged;
    Alcotest.test_case "sharded check matches sequential" `Quick
      test_sharded_matches_sequential;
    Alcotest.test_case "oracle: golden bases clean" `Quick test_oracle_bases;
    QCheck_alcotest.to_alcotest prop_matches_oracle;
  ]
