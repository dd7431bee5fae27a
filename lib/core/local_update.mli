(** Distributed schedule repair — the paper's future work (Section 9)
    as a message-passing protocol, complementing the centralized
    batched repair in {!Service}.

    After a topology event the affected sensors patch the schedule
    themselves: a coordinator refreshes itself and then hands a token to
    each affected neighbor in turn; the token holder queries its
    neighbors for distance-2 color knowledge (the same steady-state
    tables the DFS algorithm maintains), colors its uncolored incident
    arcs, recolors any of its incident arcs that the new adjacency put
    into conflict, and announces the changes (forwarded one hop to keep
    the neighborhood tables fresh).  Constant asynchronous time per
    affected node, messages proportional to its 2-hop neighborhood — the
    "low communication and computation cost" Section 9 asks for.

    Input schedules may have uncolored arcs only around the affected
    nodes; the result is complete and valid there (checked by the test
    suite via the global validator). *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

val refresh :
  Graph.t -> Schedule.t -> coordinator:int -> targets:int list -> Schedule.t * Stats.t
(** [targets] must be neighbors of [coordinator] (the token travels
    coordinator -> target -> coordinator).  Returns the patched
    schedule and the communication cost. *)

val join : Graph.t -> Schedule.t -> node:int -> Schedule.t * Stats.t
(** A sensor joined: [node]'s incident arcs are uncolored in the input
    schedule; everything else is valid.  One-node refresh. *)

val add_link : Graph.t -> Schedule.t -> int -> int -> Schedule.t * Stats.t
(** A new link appeared: its two arcs are uncolored; old arcs around
    the endpoints may now clash (new adjacency) and are repaired. *)
