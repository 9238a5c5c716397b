(** Top-level facade: one module path to the whole library.

    {[
      let fam = Mvl.Families.hypercube 8 in
      let layout = fam.Mvl.Families.layout ~layers:8 in
      let m = Mvl.Layout.metrics layout in
      assert (Mvl.Check.is_valid layout)
    ]} *)

(* topology *)
module Graph = Mvl_topology.Graph
module Mixed_radix = Mvl_topology.Mixed_radix
module Ring = Mvl_topology.Ring
module Complete = Mvl_topology.Complete
module Kary_ncube = Mvl_topology.Kary_ncube
module Hypercube = Mvl_topology.Hypercube
module Generalized_hypercube = Mvl_topology.Generalized_hypercube
module Butterfly = Mvl_topology.Butterfly
module Ccc = Mvl_topology.Ccc
module Folded_hypercube = Mvl_topology.Folded_hypercube
module Enhanced_cube = Mvl_topology.Enhanced_cube
module Reduced_hypercube = Mvl_topology.Reduced_hypercube
module Hsn = Mvl_topology.Hsn
module Hhn = Mvl_topology.Hhn
module Isn = Mvl_topology.Isn
module Pn_cluster = Mvl_topology.Pn_cluster
module Kary_cluster = Mvl_topology.Kary_cluster
module Mesh = Mvl_topology.Mesh
module Permutation = Mvl_topology.Permutation
module Cayley = Mvl_topology.Cayley
module Scc = Mvl_topology.Scc
module Shuffle = Mvl_topology.Shuffle
module Tree = Mvl_topology.Tree
module Properties = Mvl_topology.Properties

(* geometry *)
module Point = Mvl_geometry.Point
module Segment = Mvl_geometry.Segment
module Interval = Mvl_geometry.Interval
module Rect = Mvl_geometry.Rect

(* layout *)
module Collinear = Mvl_layout.Collinear
module Collinear_ring = Mvl_layout.Collinear_ring
module Collinear_kary = Mvl_layout.Collinear_kary
module Collinear_complete = Mvl_layout.Collinear_complete
module Collinear_ghc = Mvl_layout.Collinear_ghc
module Collinear_hypercube = Mvl_layout.Collinear_hypercube
module Collinear_product = Mvl_layout.Collinear_product
module Orders = Mvl_layout.Orders
module Track_assign = Mvl_layout.Track_assign
module Orthogonal = Mvl_layout.Orthogonal
module Multilayer = Mvl_layout.Multilayer
module Cluster_expand = Mvl_layout.Cluster_expand
module Multilayer3d = Mvl_layout.Multilayer3d
module Baselines = Mvl_layout.Baselines
module Wire = Mvl_layout.Wire
module Geom = Mvl_layout.Geom
module Layout = Mvl_layout.Layout
module Check = Mvl_layout.Check
module Render = Mvl_layout.Render
module Report = Mvl_layout.Report
module Serialize = Mvl_layout.Serialize
module Congestion = Mvl_layout.Congestion
module Maze_router = Mvl_layout.Maze_router
module Order_opt = Mvl_layout.Order_opt

(* model *)
module Formulas = Mvl_model.Formulas
module Lower_bounds = Mvl_model.Lower_bounds
module Delay = Mvl_model.Delay
module Exact = Mvl_model.Exact

(* routing *)
module Route = Mvl_routing.Route

(* simulation *)
module Rng = Mvl_sim.Rng
module Histogram = Mvl_sim.Histogram
module Traffic = Mvl_sim.Traffic
module Routing_table = Mvl_sim.Routing_table
module Network_sim = Mvl_sim.Network_sim
module Sim_shard = Mvl_sim.Sim_shard
module Resilience = Mvl_sim.Resilience
module Wormhole = Mvl_sim.Wormhole

(* drivers *)
module Families = Families
module Registry = Registry
module Pipeline = Pipeline
module Telemetry = Telemetry
module Span = Mvl_span.Span
module Parallel = Parallel
module Domain_pool = Mvl_pool.Domain_pool
module Barrier = Mvl_pool.Barrier
module Cache = Cache
module Ring_buffer = Mvl_ring.Ring_buffer
