(** Self-stabilizing schedule maintenance (the model of Herman &
    Tixeuil's self-stabilizing TDMA slot assignment, applied to the
    paper's Definition-2 arc schedule).

    Every node runs a heartbeat loop: each round it sends its own arc
    colors plus a relay of its neighbors' colors to every neighbor, so
    after two rounds every node holds an up-to-date {e 2-hop color
    view}.  Because every arc conflicting with an arc [a = (u, v)] is
    owned (tailed) by a node within distance 2 of [u], that view lets
    [u] detect every Definition-2 conflict of its own arcs {e locally}.
    A conflicting or uncolored arc is recolored first-fit against the
    view, under a deterministic priority rule — an arc moves only when
    it conflicts with a {e lexicographically smaller} [(owner, arc)] pair,
    i.e. the lower node id wins the round and keeps its slot — so the
    globally smallest conflicting arc never moves and repair chains
    terminate instead of livelocking.

    The two self-stabilization properties, exercised by the tests:
    - {b convergence}: from an arbitrary (partial, conflicting, or
      blip-corrupted) coloring, the network reaches a
      [Schedule.validate]-valid schedule in a bounded number of rounds;
    - {b closure}: started from a valid schedule with no faults, the
      protocol performs {e zero} recolorings and sends nothing beyond
      the heartbeats — exactly [(rounds - 1) * 2m] messages.

    State corruptions come from the fault plan's blips (see
    {!Fdlsp_sim.Fault}): the protocol installs a [?blip] hook into the
    engine that flips one of the victim's own arc slots
    ([Fault.Flip_slot]) or scrambles its cached view of other owners'
    colors ([Fault.Scramble_view]), stamping [Corrupt_state] /
    [Detect] / [Recolor] events into the trace so
    [Trace.Replay.check_stabilize] can re-verify reconvergence from the
    trace alone. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

type report = {
  rounds : int;  (** engine rounds executed (physical under {!Reliable}) *)
  converged : bool;  (** final ground-truth schedule passes [validate] *)
  corruptions : int;  (** blips actually applied *)
  detects : int;  (** arcs flagged conflicting or uncolored *)
  recolorings : int;  (** repair recolor decisions *)
  recolored_arcs : int;  (** distinct arcs ever recolored (locality) *)
  last_repair_round : int;  (** logical round of the last recoloring (0 = none) *)
  rounds_to_stabilize : int;
      (** inclusive lag from the last applied blip to the last
          recoloring; 0 when no blip fired or nothing needed fixing *)
  initial_slots : int;
  final_slots : int;
  plan_seed : int;  (** fault-plan metadata, embedded for reproducibility *)
  plan_crashes : int;
  plan_blips : int;  (** planned blips (>= [corruptions]: late blips never fire) *)
  schedule : Schedule.t;  (** the final ground-truth schedule *)
  stats : Stats.t;
}

val run :
  ?faults:Fault.plan ->
  ?reliable:Reliable.config ->
  ?engine:Reliable.sync_runner ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  ?rounds:int ->
  ?settle:int ->
  Graph.t ->
  Schedule.t ->
  report
(** [run g sched0] maintains [sched0] (which may be partial, invalid, or
    about to be corrupted by the plan's blips) for a bounded number of
    heartbeat rounds and reports what happened.

    [rounds] fixes the heartbeat horizon explicitly; by default it is
    [ceil (last planned blip time) + max 3 settle] ([settle] defaults to
    24), i.e. enough slack after the final corruption for views to
    refresh and repair chains to settle.  [faults] may combine blips
    with channel faults and crashes; with a {!Fault.lossless} plan the
    protocol runs on the raw synchronous engine, otherwise under
    {!Reliable.run_sync} (configured by [reliable]) — blip times are
    physical rounds there.  [engine] overrides the engine entirely
    (the caller is then responsible for building the engine over the
    same blips, while [faults] still supplies the report metadata and
    default horizon).

    When [trace] is enabled the run emits a ["stabilize"] phase marker,
    the initial coloring as [Color] events at t=0, and [Corrupt_state] /
    [Detect] / [Recolor] events as they happen — a trace
    [Trace.Replay.check_stabilize] accepts.

    [metrics] records the run under [algo=stabilize], [phase=stabilize]
    labels: the engine counters (an exact view of the returned [stats]),
    [detects] / [recolorings] / [fdlsp_blips_applied_total] counters
    matching the report fields, a [recolor_activity] timeline (the
    cumulative recoloring count sampled at each repair's round), and
    [fdlsp_initial_slots] / [slots] gauges.

    [spans] records a ["stabilize"] root span around the heartbeat
    execution (containing the engine's run/round spans); when no
    [engine] is given it is also threaded into the default
    {!Reliable.runner}. *)

val pp_report : Format.formatter -> report -> unit
(** Stable one-line [key=value] rendering. *)

val report_to_json : report -> string
(** Flat JSON object embedding the fault-plan metadata
    ([{"plan":{"seed":..,"crashes":..,"blips":..}}]) and the engine
    {!Stats.t}, so the artifact is self-contained like a trace file. *)
