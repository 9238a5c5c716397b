type channel = {
  index : int;
  tracks : int;
  edges : int;
  utilization : float;
}

type t = {
  rows : channel array;
  cols : channel array;
  max_row_tracks : int;
  max_col_tracks : int;
  avg_row_tracks : float;
  avg_col_tracks : float;
  balance : float;
}

let analyze (o : Orthogonal.t) =
  let build tracks edge_count =
    let max_tracks = Array.fold_left Int.max 0 tracks in
    let channels =
      Array.mapi
        (fun i t ->
          {
            index = i;
            tracks = t;
            edges = edge_count i;
            utilization =
              (if max_tracks = 0 then 0.0
               else float_of_int t /. float_of_int max_tracks);
          })
        tracks
    in
    (channels, max_tracks)
  in
  let rows, max_row_tracks =
    build o.Orthogonal.row_tracks (Orthogonal.row_edge_count o)
  in
  let cols, max_col_tracks =
    build o.Orthogonal.col_tracks (Orthogonal.col_edge_count o)
  in
  let avg arr =
    if Array.length arr = 0 then 0.0
    else
      float_of_int (Array.fold_left (fun acc c -> acc + c.tracks) 0 arr)
      /. float_of_int (Array.length arr)
  in
  let avg_row_tracks = avg rows and avg_col_tracks = avg cols in
  let balance =
    let denom = float_of_int (max_row_tracks + max_col_tracks) in
    if denom = 0.0 then 1.0 else (avg_row_tracks +. avg_col_tracks) /. denom
  in
  { rows; cols; max_row_tracks; max_col_tracks; avg_row_tracks; avg_col_tracks; balance }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "row gaps: max %d tracks, avg %.1f@," t.max_row_tracks
    t.avg_row_tracks;
  Format.fprintf ppf "col gaps: max %d tracks, avg %.1f@," t.max_col_tracks
    t.avg_col_tracks;
  Format.fprintf ppf "channel balance: %.2f@," t.balance;
  Format.fprintf ppf "@]"
