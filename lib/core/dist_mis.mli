(** DistMIS — the synchronous MIS-based distributed algorithm for FDLSP
    (Algorithm 1 of the paper).

    Outer loop: compute an MIS [S] of the residual graph.  Inner loop:
    compute a secondary MIS [S'] among the [S]-nodes that are within
    hop distance 3 of each other ({!Gbg} variant) or distance 2
    ({!General} variant, Section 6); nodes of [S'] then gather
    distance-2 color knowledge (2 rounds), greedily color their incident
    arcs (GBG) or outgoing arcs only (General) and broadcast the
    assignment (1 round).  [S'] is removed from [S] until [S] is empty,
    then [S] is removed from the residual graph, until every node has
    colored.

    Communication accounting follows the paper: each secondary-MIS round
    costs [d] physical rounds (messages relayed over [d]-hop paths by
    bridge nodes), where [d] is 3 for GBG and 2 for General; the
    gather/color phase costs 3 rounds with every node broadcasting to
    its neighbors.

    Distances for the secondary MIS are measured in the full
    communication graph (finished nodes still relay), which is what
    makes simultaneous coloring safe (Theorem 3): two [S'] members are
    [>= 4] hops apart (GBG) so any two arcs they color are at distance
    [>= 3]; in the General variant [>= 3] hops apart suffices for
    outgoing arcs. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

type variant =
  | Gbg  (** distance-3 secondary MIS; members color all incident arcs *)
  | General  (** distance-2 secondary MIS; members color outgoing arcs only *)

type result = {
  schedule : Schedule.t;
  stats : Stats.t;
  outer_iters : int;  (** primary MIS computations *)
  inner_iters : int;  (** secondary MIS computations, total *)
}

val run :
  ?faults:Fault.plan ->
  ?reliable:Reliable.config ->
  ?engine:Reliable.sync_runner ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  mis:Mis.algo ->
  variant:variant ->
  Graph.t ->
  result
(** Produces a complete valid schedule (checked by the test suite via
    {!Fdlsp_color.Schedule.validate}).

    [faults] runs every synchronous exchange (primary and secondary MIS
    phases and the gather/color phase) over the lossy channel of
    {!Fdlsp_sim.Fault}, wrapped in the ack/retransmit layer of
    {!Fdlsp_sim.Reliable} (tuned by [reliable], default
    {!Fdlsp_sim.Reliable.default}), so the schedule stays correct under
    message loss at the cost of retransmissions.  The GPS MIS pipeline
    does not support fault injection (see {!Mis.compute}).

    [engine] overrides the synchronous channel for every phase (e.g.
    {!Fdlsp_sim.Parallel.runner} to step it on several domains); when
    given, [faults]/[reliable] are ignored.

    [trace] records the run: a [Phase] marker per engine use (["mis"]
    at scale 1, ["secondary-mis"] at the variant's relay scale,
    ["color"] at 1 — so scale-weighted per-segment sums reconcile with
    [stats]), [Mis_join] per primary-MIS member, and [Color] per arc
    decision, on top of the engine-level channel events.
    Secondary-MIS segments run on the virtual competition graph, so
    their [Send]/[Recv] endpoints are virtual node ids (the member
    array order), while decisions always name real nodes and arcs.
    With an engine-backed [mis] (Luby or Local_min) the trace's
    accounting reconciles exactly with [stats]; GPS produces rounds the
    engine never executes, so its traces carry decisions only.

    [metrics] records the run in the registry under [algo=distmis] and
    [variant=gbg|general] labels, with a [phase] label per engine use
    mirroring the trace markers (["mis"], ["secondary-mis"] — whose
    counter increments are pre-scaled by the relay distance, matching
    the [Stats.scale_rounds] accounting — and ["color"]).  On top of the
    engine counters it adds [mis_joins], [colors], [outer_iters] and
    [inner_iters] counters and a final [slots] gauge.  Summing the
    registry back with {!Fdlsp_sim.Metrics.to_stats} reproduces the
    returned [stats] exactly for engine-backed MIS variants.

    [spans] records a ["distmis"] root span with one
    ["distmis.mis"] / ["distmis.secondary-mis"] / ["distmis.color"]
    child per phase execution, each containing the engine's own run
    spans; when no [engine] is given, [spans] is also threaded into the
    default {!Fdlsp_sim.Reliable.runner}. *)
