(** The asynchronous DFS-based algorithm for FDLSP (Algorithm 2).

    A single token walks the network in depth-first order.  The token
    holder queries its neighbors for their distance-2 color knowledge,
    greedily colors its still-uncolored incident arcs, announces the
    assignment (neighbors forward the announcement one hop, so every
    node keeps distance-2 knowledge current), and passes the token to
    its unvisited neighbor of maximum degree — or back to its parent.
    Nodes also mark a neighbor visited when they see its query or
    announcement, pruning redundant token moves.

    Time is O(n) token steps with a constant per-step overhead
    (query/reply plus announce/ack synchronization that keeps the
    distance-2 tables coherent before the token moves on); message
    complexity is O(m Δ) from the one-hop announcement forwarding.
    The asynchronous engine's event budget is sized from that bound
    (never below 10{^6}), so it guards against livelock without capping
    the graph size. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

type next_policy =
  | Max_degree  (** the paper's choice: unvisited neighbor of max degree *)
  | Min_id  (** ablation: lowest-id unvisited neighbor *)

type result = {
  schedule : Schedule.t;
  stats : Stats.t;
  token_moves : int;  (** forward token passes (tree edges) *)
}

val run :
  ?policy:next_policy ->
  ?delay:Async.delay ->
  ?faults:Fault.plan ->
  ?reliable:Reliable.config ->
  ?roots:int list ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  Graph.t ->
  result
(** [roots] designates one initiator per connected component (defaults
    to the max-degree node of each component); supplying a root for only
    some components raises once the run leaves arcs uncolored.

    [faults] injects channel faults (see {!Fdlsp_sim.Fault}).  The token
    protocol assumes exactly-once FIFO delivery, so a non-trivial fault
    plan automatically enables the ack/retransmit layer of
    {!Fdlsp_sim.Async} with {!Fdlsp_sim.Reliable.default} unless
    [reliable] overrides the tuning.

    [trace] records one ["dfs"] phase marker, the asynchronous engine's
    channel events, and a [Color] decision (stamped with the token
    holder's local clock) for every arc the holder colors — enough for
    {!Fdlsp_sim.Trace.Replay} to re-validate the schedule and reconcile
    the stats counters.

    [metrics] records the run under [algo=dfs], [phase=dfs] labels: the
    asynchronous engine's counters (an exact view of the returned
    [stats]), plus [token_moves] and [colors] counters and a final
    [slots] gauge.

    [spans] records a ["dfs"] root span (setup, the engine's
    ["async.run"] child, and schedule assembly). *)
