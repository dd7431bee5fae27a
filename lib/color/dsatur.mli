(** Exact graph (vertex) coloring by DSATUR branch-and-bound.

    Applied to {!Conflict.conflict_graph} this computes the optimal
    FDLSP slot count — the "ILP" column of the paper's Table 1 — and it
    cross-validates the from-scratch ILP solver of the test suite on
    tiny instances.  Exponential in the worst case; bounded by
    [max_decisions]. *)

open Fdlsp_graph

type status =
  | Optimal  (** proven optimal *)
  | Feasible  (** decision budget exhausted; best found so far *)

type result = {
  status : status;
  colors_used : int;  (** chromatic number when [status = Optimal] *)
  coloring : int array;  (** a proper coloring with [colors_used] colors *)
  decisions : int;  (** branch-and-bound nodes explored *)
}

val solve : ?max_decisions:int -> Graph.t -> result
(** Vertex-color the graph with the minimum number of colors.
    [max_decisions] defaults to 20 million. *)

val is_proper_coloring : Graph.t -> int array -> bool

val fdlsp_optimal : ?max_decisions:int -> Graph.t -> result
(** [fdlsp_optimal g] solves FDLSP exactly on the sensor-network graph
    [g]: colors the conflict graph of [g]'s bi-directed view.  The
    returned coloring is indexed by arc id. *)
