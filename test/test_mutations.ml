(* Checker hardening: start from a known-valid layout and apply
   guaranteed-breaking mutations; the verifier must flag every one. *)
open Mvl_core

let base_layout () =
  let fam = Mvl.Families.hypercube 4 in
  fam.Mvl.Families.layout ~layers:4

let with_wires (lay : Mvl.Layout.t) wires =
  Mvl.Layout.make ~graph:(Mvl.Layout.graph lay) ~layers:(Mvl.Layout.layers lay)
    ~node_layers:(Mvl.Layout.node_layers lay) ~nodes:(Mvl.Layout.nodes lay)
    ~wires ()

let shift_wire (w : Mvl.Wire.t) ~dx ~dy =
  Mvl.Wire.make ~edge:w.Mvl.Wire.edge
    (Array.to_list
       (Array.map
          (fun (p : Mvl.Point.t) ->
            Mvl.Point.make ~x:(p.Mvl.Point.x + dx) ~y:(p.Mvl.Point.y + dy)
              ~z:p.Mvl.Point.z)
          w.Mvl.Wire.points))

let test_detached_wire () =
  (* translating a wire far away detaches it from its terminals (small
     shifts can legitimately land on a free neighbouring terminal slot,
     which the checker rightly accepts) *)
  let lay = base_layout () in
  for victim = 0 to min 9 (Array.length (Mvl.Layout.wires lay) - 1) do
    let wires = Array.copy (Mvl.Layout.wires lay) in
    wires.(victim) <- shift_wire wires.(victim) ~dx:10_000 ~dy:0;
    let mutated = with_wires lay wires in
    Alcotest.(check bool)
      (Printf.sprintf "shifted wire %d caught" victim)
      false
      (Mvl.Check.is_valid mutated)
  done

let test_cloned_route () =
  (* give one edge another edge's route: overlap + wrong terminals *)
  let lay = base_layout () in
  let wires = Array.copy (Mvl.Layout.wires lay) in
  let donor = wires.(0) in
  wires.(1) <- { donor with Mvl.Wire.edge = wires.(1).Mvl.Wire.edge };
  let mutated = with_wires lay wires in
  Alcotest.(check bool) "cloned route caught" false (Mvl.Check.is_valid mutated)

let test_swapped_footprints () =
  (* swapping two node footprints leaves every wire mis-terminated *)
  let lay = base_layout () in
  let nodes = Array.copy (Mvl.Layout.nodes lay) in
  let tmp = nodes.(0) in
  nodes.(0) <- nodes.(3);
  nodes.(3) <- tmp;
  let mutated =
    Mvl.Layout.make ~graph:(Mvl.Layout.graph lay)
      ~layers:(Mvl.Layout.layers lay) ~nodes ~wires:(Mvl.Layout.wires lay) ()
  in
  Alcotest.(check bool) "swapped footprints caught" false
    (Mvl.Check.is_valid mutated)

let test_flattened_layers () =
  (* projecting all wiring onto one layer must collide somewhere *)
  let lay = base_layout () in
  let wires =
    Array.map
      (fun (w : Mvl.Wire.t) ->
        Mvl.Wire.make ~edge:w.Mvl.Wire.edge
          (Array.to_list
             (Array.map
                (fun (p : Mvl.Point.t) ->
                  Mvl.Point.make ~x:p.Mvl.Point.x ~y:p.Mvl.Point.y ~z:1)
                w.Mvl.Wire.points)))
      (Mvl.Layout.wires lay)
  in
  let mutated = with_wires lay wires in
  Alcotest.(check bool) "flattening caught" false (Mvl.Check.is_valid mutated)

let prop_random_shifts_caught =
  QCheck.Test.make ~count:60 ~name:"random wire shifts are caught"
    QCheck.(pair (int_range 0 31) (int_range 0 3))
    (fun (victim, direction) ->
      let lay = base_layout () in
      let victim = victim mod Array.length (Mvl.Layout.wires lay) in
      let dx, dy =
        match direction with
        | 0 -> (10_000, 0)
        | 1 -> (-10_000, 0)
        | 2 -> (0, 10_000)
        | _ -> (0, -10_000)
      in
      let wires = Array.copy (Mvl.Layout.wires lay) in
      wires.(victim) <- shift_wire wires.(victim) ~dx ~dy;
      not (Mvl.Check.is_valid (with_wires lay wires)))

let test_valid_survives_identity () =
  let lay = base_layout () in
  let wires = Array.copy (Mvl.Layout.wires lay) in
  Alcotest.(check bool) "identity mutation stays valid" true
    (Mvl.Check.is_valid (with_wires lay wires))


(* --- faults a wrong stab would miss ---------------------------------- *)

let pt x y z = Mvl.Point.make ~x ~y ~z

let run_all lay =
  (Mvl.Check.run ~max_violations:10_000 lay).Mvl.Check.violations

let rules_of lay = List.map (fun v -> v.Mvl.Check.rule) (run_all lay)

(* [runs] wires each put one horizontal run on the track line y = [line]
   of layer 2, side by side, and a last wire drops a via at ([via_x],
   [line]) from layer 3 to layer 1, i.e. through layer 2 *)
let crowded_line ~runs ~line ~via_x =
  let n = (2 * runs) + 2 in
  let graph =
    Mvl.Graph.of_edges ~n (List.init (runs + 1) (fun i -> (2 * i, (2 * i) + 1)))
  in
  let nodes =
    Array.init n (fun k ->
        let i = k / 2 in
        if i < runs then
          let x0 = (10 * i) + (if k mod 2 = 0 then 0 else 5) in
          Mvl.Rect.make ~x0 ~y0:0 ~x1:(x0 + 1) ~y1:1
        else if k mod 2 = 0 then
          Mvl.Rect.make ~x0:(via_x - 1) ~y0:(line + 5) ~x1:via_x ~y1:(line + 6)
        else Mvl.Rect.make ~x0:via_x ~y0:(line - 1) ~x1:(via_x + 1) ~y1:line)
  in
  let wires =
    Array.init (runs + 1) (fun i ->
        let edge = (2 * i, (2 * i) + 1) in
        if i < runs then
          let a = (10 * i) + 1 and b = (10 * i) + 5 in
          Mvl.Wire.make ~edge
            [ pt a 1 1; pt a 1 2; pt a line 2; pt b line 2; pt b 1 2; pt b 1 1 ]
        else
          Mvl.Wire.make ~edge
            [
              pt via_x (line + 5) 1;
              pt via_x (line + 5) 3;
              pt via_x line 3;
              pt via_x line 1;
            ])
  in
  Mvl.Layout.make ~graph ~layers:3 ~nodes ~wires ()

let test_via_mid_crowded_line () =
  (* the via lands in the middle of run 100 of 200 on one line: exactly
     one fault, found wherever the probe's search starts *)
  let runs = 200 and line = 20 in
  let lay = crowded_line ~runs ~line ~via_x:((10 * 100) + 3) in
  Alcotest.(check (list string)) "one via-run" [ "via-run" ] (rules_of lay);
  let detail = (List.hd (run_all lay)).Mvl.Check.detail in
  Alcotest.(check bool)
    "names the via's wire and run 100's wire" true
    (detail
    = Printf.sprintf "via of wire %d pierces run of wire 100 at (%d,%d,2)" runs
        ((10 * 100) + 3) line);
  (* the same via between two runs pierces nothing *)
  Alcotest.(check (list string)) "gap is clean" []
    (rules_of (crowded_line ~runs ~line ~via_x:((10 * 100) + 8)))

let test_via_past_doubled_back_run () =
  (* wire 0 runs [1, 21] on y = 10 of layer 2, then doubles back onto
     the same line for [3, 6]; wire 1's via at x = 12 sits inside the
     outer run but past the inner one, which is the last run starting
     at or before 12 *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:1 ~y1:1;
      Mvl.Rect.make ~x0:30 ~y0:0 ~x1:31 ~y1:1;
      Mvl.Rect.make ~x0:12 ~y0:15 ~x1:13 ~y1:16;
      Mvl.Rect.make ~x0:11 ~y0:9 ~x1:12 ~y1:10;
    |]
  in
  let w0 =
    Mvl.Wire.make ~edge:(0, 1)
      [
        pt 1 1 1; pt 1 1 2; pt 1 10 2; pt 21 10 2; pt 21 12 2; pt 6 12 2;
        pt 6 10 2; pt 3 10 2; pt 3 10 3; pt 3 5 3; pt 30 5 3; pt 30 1 3;
        pt 30 1 1;
      ]
  in
  let w1 =
    Mvl.Wire.make ~edge:(2, 3)
      [ pt 12 15 1; pt 12 15 3; pt 12 10 3; pt 12 10 1 ]
  in
  let lay = Mvl.Layout.make ~graph ~layers:3 ~nodes ~wires:[| w0; w1 |] () in
  Alcotest.(check (list string)) "via-run past the inner run" [ "via-run" ]
    (rules_of lay)

let with_nodes (lay : Mvl.Layout.t) nodes =
  Mvl.Layout.make ~graph:(Mvl.Layout.graph lay) ~layers:(Mvl.Layout.layers lay)
    ~node_layers:(Mvl.Layout.node_layers lay) ~nodes
    ~wires:(Mvl.Layout.wires lay) ()

let node_overlaps_of a b lay =
  List.length
    (List.filter
       (fun v ->
         v.Mvl.Check.rule = "node-overlap"
         && String.starts_with
              ~prefix:(Printf.sprintf "nodes %d and %d overlap" a b)
              v.Mvl.Check.detail)
       (run_all lay))

let test_node_inside_node () =
  let lay = base_layout () in
  let nodes = Array.copy (Mvl.Layout.nodes lay) in
  (* grow node 0 around node 5, so node 5 sits strictly inside it *)
  let r = nodes.(5) in
  nodes.(0) <-
    Mvl.Rect.make ~x0:(r.Mvl.Rect.x0 - 1) ~y0:(r.Mvl.Rect.y0 - 1)
      ~x1:(r.Mvl.Rect.x1 + 1) ~y1:(r.Mvl.Rect.y1 + 1);
  Alcotest.(check int) "nested footprints reported once" 1
    (node_overlaps_of 0 5 (with_nodes lay nodes))

let test_node_offset_overlap () =
  let lay = base_layout () in
  let nodes = Array.copy (Mvl.Layout.nodes lay) in
  let r = nodes.(5) in
  (* node 0 covers node 5's top-right corner only: no shared bottom row,
     no shared x0 *)
  nodes.(0) <-
    Mvl.Rect.make ~x0:r.Mvl.Rect.x1 ~y0:r.Mvl.Rect.y1 ~x1:(r.Mvl.Rect.x1 + 3)
      ~y1:(r.Mvl.Rect.y1 + 3);
  Alcotest.(check int) "offset footprints reported once" 1
    (node_overlaps_of 0 5 (with_nodes lay nodes));
  let nodes = Array.copy (Mvl.Layout.nodes lay) in
  nodes.(0) <- nodes.(5);
  Alcotest.(check int) "identical footprints reported once" 1
    (node_overlaps_of 0 5 (with_nodes lay nodes))

let suite =
  [
    Alcotest.test_case "detached wires" `Quick test_detached_wire;
    Alcotest.test_case "cloned route" `Quick test_cloned_route;
    Alcotest.test_case "swapped footprints" `Quick test_swapped_footprints;
    Alcotest.test_case "flattened layers" `Quick test_flattened_layers;
    QCheck_alcotest.to_alcotest prop_random_shifts_caught;
    Alcotest.test_case "identity is valid" `Quick test_valid_survives_identity;
    Alcotest.test_case "via mid crowded line" `Quick test_via_mid_crowded_line;
    Alcotest.test_case "via past doubled-back run" `Quick
      test_via_past_doubled_back_run;
    Alcotest.test_case "node inside node" `Quick test_node_inside_node;
    Alcotest.test_case "node offset overlap" `Quick test_node_offset_overlap;
  ]
