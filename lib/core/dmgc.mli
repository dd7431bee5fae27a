(** D-MGC — the distributed edge-coloring baseline of [8] ("the best
    known algorithm for FDLSP" the paper compares against).

    Phase 1 colors the undirected edges with at most [Δ + 1] colors by
    distributed Misra–Gries (fans + cd-path inversions).  Phase 2
    assigns a direction to every edge so that each color class is a
    valid one-direction distance-2 assignment; the class colors are then
    doubled ([c] forward, [c + K] reverse) to obtain the full duplex
    schedule.  Where a color class admits no consistent orientation
    (cycles of interacting matching edges), edges are deferred and
    re-colored with freshly injected colors — exactly the "inject more
    colors" step of [8].

    We reimplement the algorithm at behaviour level (real Misra–Gries,
    real orientation search, real injection) and charge communication
    rounds by the cost model the paper itself uses when reviewing D-MGC
    in Section 6: 2-hop coordination waves for exclusive coloring,
    [O(len)] rounds per cd-path inversion plus the same again for path
    locking, and [O(component)] rounds per direction-assignment DFS.
    Slot counts — what figures 8–12 compare — come from the real
    algorithm, not the model. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

type result = {
  schedule : Schedule.t;
  stats : Stats.t;  (** modeled rounds/messages, see above *)
  base_colors : int;  (** phase-1 palette size K (= max color + 1) *)
  injected_edges : int;  (** edges deferred to injected colors *)
}

val run :
  ?trace:Fdlsp_sim.Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  Graph.t ->
  result
(** [trace] records a decision-only trace: one ["dmgc"] phase marker and
    one [Color] event per arc of the finished schedule (attributed to
    the arc's tail), in arc-id order.  D-MGC's stats are a cost model
    rather than engine counters, so its traces carry no channel events
    and do not reconcile against [stats].

    [metrics] records the cost-model stats directly in the registry
    under [algo=dmgc], [engine=model], [phase=dmgc] labels (so
    {!Fdlsp_sim.Metrics.to_stats} stays an exact view of the returned
    record), plus a [colors] counter and [fdlsp_base_colors],
    [fdlsp_injected_edges] and [slots] gauges.

    [spans] records a ["dmgc"] root span with ["dmgc.vizing"]
    (phase-1 Misra–Gries coloring) and ["dmgc.orient"] (phase-2
    orientation + injection) children. *)

val orient_class :
  Graph.t -> int list -> (int * int) list * int list
(** [orient_class g edges] solves the orientation problem for one color
    class (a matching, given as edge indices): returns [(edge, dir)]
    assignments ([dir] 0 = canonical) such that the oriented arcs are
    pairwise non-conflicting, together with the deferred edges that had
    to be dropped to make the rest satisfiable.  Exposed for tests.

    The rule is the plain retry loop: search each interaction component
    for an orientation (backtracking, class order, direction 0 first,
    at most 200,000 decisions); when the search fails, defer the edge
    of highest interaction degree (lower index on ties) and search the
    rest again.  The result is exactly that loop's, but a prefix of
    deferrals that no search could avoid — the rest of the component
    has no orientation at all — is found in one near-linear pass
    instead of one failed search each.  [deferred] lists edges in
    deferral order, component by component. *)
