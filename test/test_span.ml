(* Span: the domain-local recorder behind every timing in the system
   (pipeline stages, construction phases, verifier passes). *)

open Mvl_core
module Span = Mvl.Span

let names spans = List.map (fun (s : Span.t) -> s.Span.name) spans

(* the span tree with the measurements dropped, e.g.
   "validate(check.build_indexes,check.layers)" *)
let rec shape (s : Span.t) =
  match s.Span.children with
  | [] -> s.Span.name
  | kids -> s.Span.name ^ "(" ^ String.concat "," (List.map shape kids) ^ ")"

let shapes spans = String.concat "," (List.map shape spans)

let spin () =
  let r = ref 0 in
  for i = 1 to 10_000 do
    r := !r + i
  done;
  ignore (Sys.opaque_identity !r)

let test_nesting () =
  let (), spans =
    Span.collect (fun () ->
        Span.with_ "outer" (fun () ->
            Span.with_ "a" spin;
            Span.with_ "b" (fun () -> Span.with_ "c" spin)))
  in
  Alcotest.(check string) "tree" "outer(a,b(c))" (shapes spans);
  let rec check_within (s : Span.t) =
    let kids =
      List.fold_left (fun acc (k : Span.t) -> acc +. k.seconds) 0.0 s.children
    in
    Alcotest.(check bool)
      (s.name ^ ": children's seconds within the parent's")
      true (kids <= s.seconds);
    Alcotest.(check bool) (s.name ^ ": non-negative") true (s.seconds >= 0.0);
    List.iter check_within s.children
  in
  List.iter check_within spans;
  let outer = List.hd spans in
  Alcotest.(check int) "one call" 1 outer.count

let test_exception_balances_stack () =
  let (), spans =
    Span.collect (fun () ->
        (try Span.with_ "a" (fun () -> Span.with_ "b" (fun () -> raise Exit))
         with Exit -> ());
        Span.with_ "c" ignore)
  in
  Alcotest.(check string) "raising span closed, sibling at the root" "a(b),c"
    (shapes spans);
  (match Span.collect (fun () -> Span.with_ "x" (fun () -> raise Exit)) with
  | _ -> Alcotest.fail "the exception must escape collect"
  | exception Exit -> ());
  let (), spans = Span.collect (fun () -> Span.with_ "y" ignore) in
  Alcotest.(check string) "the next collect starts clean" "y" (shapes spans)

let test_no_collector_records_nothing () =
  Alcotest.(check int) "plain call" 42 (Span.with_ "orphan" (fun () -> 42));
  let (), spans = Span.collect ignore in
  Alcotest.(check string) "nothing recorded" "" (shapes spans);
  (* an inner collect suspends the outer one instead of feeding it *)
  let inner, outer =
    Span.collect (fun () ->
        Span.with_ "before" ignore;
        let (), inner = Span.collect (fun () -> Span.with_ "inner" ignore) in
        Span.with_ "after" ignore;
        inner)
  in
  Alcotest.(check string) "inner forest" "inner" (shapes inner);
  Alcotest.(check string) "outer forest" "before,after" (shapes outer)

let test_same_name_siblings_merge () =
  let (), spans =
    Span.collect (fun () ->
        for _ = 1 to 5 do
          Span.with_ "leaf" (fun () -> ignore (Array.make 100 0))
        done;
        Span.with_ "other" ignore;
        Span.with_ "leaf" ignore)
  in
  Alcotest.(check (list string)) "one node per name, first-call order"
    [ "leaf"; "other" ] (names spans);
  let leaf = List.hd spans in
  Alcotest.(check int) "calls counted" 6 leaf.count;
  Alcotest.(check bool) "words summed over the calls" true
    (leaf.minor_words +. leaf.major_words >= 500.0)

(* spans are recorded on the calling domain only and nothing is recorded
   inside a Domain_pool task, so the tree is the same at every job count *)
let test_tree_independent_of_jobs () =
  let fam = Mvl.Registry.build_exn (Mvl.Registry.spec_exn "hypercube:6") in
  let tree jobs =
    let (), spans =
      Span.collect (fun () ->
          let lay = fam.Mvl.Families.layout_jobs ~jobs ~layers:4 in
          let res = Mvl.Check.run ~mode:Mvl.Check.Strict ~jobs lay in
          Alcotest.(check int) "valid" 0 (List.length res.Mvl.Check.violations))
    in
    shapes spans
  in
  let t1 = tree 1 in
  Alcotest.(check string) "jobs 1 tree"
    "terminals,emit,geom,check.build_indexes,check.layers,check.node_index,\
     check.nodes,check.terminals,check.wires_vs_nodes,check.sweeps,check.vias"
    t1;
  Alcotest.(check string) "jobs 4 = jobs 1" t1 (tree 4)

let suite =
  [
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "exception balances the stack" `Quick
      test_exception_balances_stack;
    Alcotest.test_case "no collector records nothing" `Quick
      test_no_collector_records_nothing;
    Alcotest.test_case "same-name siblings merge" `Quick
      test_same_name_siblings_merge;
    Alcotest.test_case "tree independent of jobs" `Quick
      test_tree_independent_of_jobs;
  ]
