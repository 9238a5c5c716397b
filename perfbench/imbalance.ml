(* Exact channel load of the routing tables under uniform all-pairs
   traffic: route every ordered (src, dst) pair with
   Routing_table.path and count each directed link it crosses.  The
   max/avg ratio over directed links bounds uniform-traffic saturation
   (a perfectly balanced routing scores 1). *)
open Mvl_core

let max_over_avg rt g =
  let n = Mvl.Graph.n g in
  let load = Hashtbl.create (4 * Mvl.Graph.m g) in
  for src = 0 to n - 1 do
    for dest = 0 to n - 1 do
      if src <> dest then begin
        let rec walk = function
          | u :: (v :: _ as rest) ->
              let k = (u * n) + v in
              Hashtbl.replace load k
                (1 + Option.value ~default:0 (Hashtbl.find_opt load k));
              walk rest
          | _ -> ()
        in
        walk (Mvl.Routing_table.path rt ~src ~dest)
      end
    done
  done;
  let total = Hashtbl.fold (fun _ c s -> s + c) load 0 in
  let peak = Hashtbl.fold (fun _ c s -> max c s) load 0 in
  float_of_int peak *. float_of_int (2 * Mvl.Graph.m g) /. float_of_int total
