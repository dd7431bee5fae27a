(** Node partitions for the domain-parallel engine.

    A partition assigns every node of an [n]-node graph to one of
    [parts] shards.  Construction is deterministic (same inputs, same
    partition), so a parallel run's shard layout, cut fraction and
    per-shard metrics are reproducible.  Shards may be empty ([parts]
    can exceed [n]); part ids are dense in [0 .. parts-1].

    Two strategies, chosen by {!of_graph}:
    - {!geometric}: equal-count vertical strips of the node positions —
      the natural cut for unit-disk graphs, where edges only join
      points within the radius, so a strip boundary cuts O(strip
      height / radius) edges;
    - {!bfs_regions}: quota-bounded BFS growth from the smallest
      unassigned node — locality-aware for arbitrary graphs. *)

type t = private {
  parts : int;  (** number of shards, >= 1 *)
  part : int array;  (** [part.(v)] is node [v]'s shard, in [0 .. parts-1] *)
}

val geometric : Geometry.point array -> parts:int -> t
(** Sort nodes by [(x, y, id)] and cut the order into [parts]
    equal-count strips.  Nodes at equal positions tie-break on id, so
    the partition is a pure function of the point array. *)

val bfs_regions : Graph.t -> parts:int -> t
(** Grow regions of at most [ceil n/parts] nodes by BFS: repeatedly
    take the smallest unassigned node as a seed and flood until the
    quota fills, then open the next shard.  Disconnected graphs are
    handled (each exhausted frontier re-seeds); every shard is a union
    of connected chunks. *)

val of_graph : ?points:Geometry.point array -> Graph.t -> parts:int -> t
(** The engine's default policy: {!geometric} when [points] are given
    and match the graph's node count (the UDG case), {!bfs_regions}
    otherwise. *)

val shards : t -> int array array
(** [shards p] lists each shard's nodes in ascending order. *)

val cut_fraction : Graph.t -> t -> float
(** Fraction of edges whose endpoints live in different shards
    (0 on edgeless graphs).  The cross-shard message traffic a round
    barrier must exchange is proportional to this. *)
