(** Orthogonal 2-D layouts (§2.4): nodes arranged on a [rows x cols]
    grid such that every edge connects two nodes of the same row or the
    same column.  Row edges are assigned to horizontal tracks in the gap
    above their row, column edges to vertical tracks in the gap right of
    their column; per-line track packing is the optimal left-edge
    greedy.

    Line tables are stored columnar: per-line CSR offsets over flat
    [edge_id]/[a]/[b]/[track] int columns (built by a two-pass counting
    sort over the edge list, packed by the flat {!Track_assign} engine).
    Within a line, edges appear in ascending edge id order. *)

open Mvl_topology

type line_edge = {
  edge_id : int;  (** index into [Graph.edges graph] *)
  a : int;        (** smaller line coordinate (column for row edges) *)
  b : int;        (** larger line coordinate *)
  track : int;    (** 0-based track within the line's gap *)
}

type t = {
  graph : Graph.t;
  rows : int;
  cols : int;
  place : (int * int) array;  (** node id -> (row, col) *)
  node_at : int array array;  (** [row].(col) -> node id *)
  row_off : int array;        (** CSR offsets, length [rows + 1] *)
  row_eid : int array;        (** edge id per row-edge slot *)
  row_a : int array;          (** smaller column per row-edge slot *)
  row_b : int array;          (** larger column per row-edge slot *)
  row_track : int array;      (** assigned track per row-edge slot *)
  col_off : int array;        (** CSR offsets, length [cols + 1] *)
  col_eid : int array;
  col_a : int array;          (** smaller row per column-edge slot *)
  col_b : int array;
  col_track : int array;
  row_tracks : int array;     (** tracks in the gap above each row *)
  col_tracks : int array;     (** tracks right of each column *)
}

val create :
  ?jobs:int -> Graph.t -> rows:int -> cols:int -> place:(int -> int * int) -> t
(** Classifies each edge as row or column edge and packs tracks.
    Raises [Invalid_argument] if some edge is neither (the placement is
    not orthogonal), if the placement is not a bijection onto the grid,
    or if the grid size does not match [Graph.n].  [jobs > 1] shards the
    per-line track packing across a {!Mvl_pool.Domain_pool} (output is
    identical at every job count). *)

val of_product :
  ?jobs:int -> row_factor:Collinear.t -> col_factor:Collinear.t -> Graph.t -> t
(** Orthogonal layout of a product network [G = A x B] (§3.2): node
    [(x, y)] (encoded [y * n_A + x]) goes to column [pos_A x] and row
    [pos_B y], so each row is laid out like [A] and each column like
    [B].  [graph] must be the Cartesian product with that encoding. *)

val row_edges : t -> int -> line_edge array
(** Materialized per-row view of the CSR columns (ascending edge id);
    convenience for tests and small consumers — the hot paths read the
    flat columns directly. *)

val col_edges : t -> int -> line_edge array

val row_edge_count : t -> int -> int
val col_edge_count : t -> int -> int

val total_row_tracks : t -> int
val total_col_tracks : t -> int

val max_row_degree : t -> int
(** Largest number of row edges incident to a single node — determines
    the minimum node width. *)

val max_col_degree : t -> int
