(** Graph traversals: BFS distances, bounded neighborhoods, components,
    DFS orders.  These back both the algorithms (k-hop knowledge,
    DFS token order) and the test oracles (independence distances). *)

val bfs_distances : Graph.t -> int -> int array
(** Hop distance from the source; [max_int] for unreachable nodes. *)

val distance : Graph.t -> int -> int -> int
(** Pairwise hop distance ([max_int] if disconnected). *)

type scratch
(** Reusable bounded-BFS state for one graph: a {!Stamp.t} of reached
    nodes plus two int arrays of length [n], so a search costs time
    proportional to the neighborhood it visits, not to [n].  Build one
    per loop over many sources.  Single-use at a time and not
    thread-safe. *)

val scratch : Graph.t -> scratch

val iter_within : scratch:scratch -> Graph.t -> int -> int -> (int -> unit) -> unit
(** [iter_within ~scratch g v r f] calls [f] once on every node at hop
    distance in [1..r] from [v], in BFS order.  [f] must not search with
    the same scratch.  Raises [Invalid_argument] if the scratch was
    built over a graph with a different node count. *)

val within : scratch:scratch -> Graph.t -> int -> int -> int list
(** [within ~scratch g v r] lists nodes at hop distance in [1..r] from [v],
    ascending — the [N^r(v)] neighborhood of the paper minus [v]. *)

val virtual_graph : Graph.t -> bool array -> dist:int -> Graph.t * int array
(** [virtual_graph g members ~dist] is the competition graph of the
    secondary MIS in DistMIS and its broadcast variant: one node per
    member ([members.(v)]), numbered in increasing real id, joined when
    the two members are within [dist] hops in [g] (non-members relay).
    Returns the graph and the array mapping virtual ids to real ids. *)

val components : Graph.t -> int array * int
(** [components g] labels every node with a component id in
    [0 .. k-1] and returns [k]. *)

val is_connected : Graph.t -> bool

val dfs_preorder : Graph.t -> int -> next:(int -> int list -> int option) -> int list
(** [dfs_preorder g root ~next] runs a depth-first traversal of the
    component of [root], where [next v candidates] picks which unvisited
    neighbor of [v] to descend into ([candidates] is non-empty, ascending).
    Returns nodes in first-visit order.  This mirrors Algorithm 2's token
    walk, whose tie-break (max degree) is a [next] policy. *)

val eccentricity : Graph.t -> int -> int
(** Greatest finite hop distance from the node. *)

val diameter : Graph.t -> int
(** Largest eccentricity over all nodes, ignoring unreachable pairs;
    0 for the empty graph. *)
