type t = {
  name : string;
  mutable seconds : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable count : int;
  mutable children : t list;  (* newest first while recording *)
}

let node name =
  { name; seconds = 0.0; minor_words = 0.0; major_words = 0.0; count = 0;
    children = [] }

(* the calling domain's open spans, innermost first; [] = no collector *)
let stack : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Gc.counters's minor count lags until the next minor collection, so
   minor words come from Gc.minor_words, which is exact; its major count
   includes promotions, which the minor count already holds *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let with_ name f =
  let st = Domain.DLS.get stack in
  match !st with
  | [] -> f ()
  | parent :: _ as saved ->
      let n =
        let same k = String.equal k.name name in
        match List.find_opt same parent.children with
        | Some k -> k
        | None ->
            let k = node name in
            parent.children <- k :: parent.children;
            k
      in
      st := n :: saved;
      let minor0 = Gc.minor_words () and major0 = direct_major_words () in
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          n.seconds <- n.seconds +. Float.max 0.0 (t1 -. t0);
          n.minor_words <- n.minor_words +. (Gc.minor_words () -. minor0);
          n.major_words <- n.major_words +. (direct_major_words () -. major0);
          n.count <- n.count + 1;
          st := saved)

let rec first_call_order s =
  s.children <- List.rev s.children;
  List.iter first_call_order s.children

let collect f =
  let st = Domain.DLS.get stack in
  let saved = !st in
  let root = node "" in
  st := [ root ];
  let v = Fun.protect f ~finally:(fun () -> st := saved) in
  first_call_order root;
  (v, root.children)

let pp ppf spans =
  let rec lines depth acc (s : t) =
    List.fold_left (lines (depth + 1)) ((depth, s) :: acc) s.children
  in
  let rows = List.rev (List.fold_left (lines 0) [] spans) in
  let pp_row ppf (depth, s) =
    Format.fprintf ppf "%*s%-*s %9.4fs %9.3f Mwords%s" (2 * depth) ""
      (Int.max 1 (28 - (2 * depth)))
      s.name s.seconds
      ((s.minor_words +. s.major_words) /. 1e6)
      (if s.count > 1 then Printf.sprintf "  x%d" s.count else "")
  in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_row) rows

let peak_rss_kib () =
  (* "VmHWM:    1234 kB" *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            acc
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            let digits =
              String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9')
            in
            go
              (Option.value ~default:acc
                 (int_of_string_opt (String.of_seq digits)))
        | _ -> go acc
      in
      go 0
