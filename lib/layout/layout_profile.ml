type phase = Place | Pack | Terminals | Emit | Build

type phases = {
  place_seconds : float;
  pack_seconds : float;
  terminals_seconds : float;
  emit_seconds : float;
  build_seconds : float;
}

let zero =
  {
    place_seconds = 0.;
    pack_seconds = 0.;
    terminals_seconds = 0.;
    emit_seconds = 0.;
    build_seconds = 0.;
  }

(* one accumulator per domain: concurrent constructions (serve
   workers, Parallel.map domains) never sum into each other *)
let current = Domain.DLS.new_key (fun () -> zero)
let reset () = Domain.DLS.set current zero

let record phase dt =
  let c = Domain.DLS.get current in
  Domain.DLS.set current
    (match phase with
    | Place -> { c with place_seconds = c.place_seconds +. dt }
    | Pack -> { c with pack_seconds = c.pack_seconds +. dt }
    | Terminals -> { c with terminals_seconds = c.terminals_seconds +. dt }
    | Emit -> { c with emit_seconds = c.emit_seconds +. dt }
    | Build -> { c with build_seconds = c.build_seconds +. dt })

let timed phase f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  record phase (Unix.gettimeofday () -. t0);
  r

let snapshot () = Domain.DLS.get current
