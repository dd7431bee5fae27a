(** Sequential greedy distance-2 edge coloring — the [greedyColor]
    reference of Lemma 9/10: first-fit on the conflict graph, never more
    than [2 Δ²] colors (Lemma 6). *)

open Fdlsp_graph

val first_free : scratch:Conflict.scratch -> Schedule.t -> Arc.id -> int
(** Smallest color not used by any colored arc conflicting with the
    argument: {!Conflict.first_fit} against the schedule, with a
    scratch built over the schedule's graph. *)

val color_arc : scratch:Conflict.scratch -> Schedule.t -> Arc.id -> unit
(** First-fit one arc (overwrites any previous color of that arc). *)

val extend : ?scratch:Conflict.scratch -> Schedule.t -> Arc.id list -> unit
(** First-fit the given arcs in order, skipping already-colored ones.
    Allocates one shared scratch when none is supplied. *)

type order =
  | By_id  (** arc id order *)
  | By_degree  (** arcs at high-degree nodes first *)
  | Shuffled of Random.State.t

val color : ?order:order -> Graph.t -> Schedule.t
(** Greedy-color every arc of the bi-directed graph. *)
