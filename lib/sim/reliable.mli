(** Reliable delivery over faulty channels: an ack/retransmit (ARQ)
    layer with exponential backoff that turns a lossy, duplicating,
    reordering channel back into a reliable FIFO one, so the paper's
    protocols run unchanged under message loss.

    Two deployments share the {!config}:
    - {!run_sync} here: a synchronizer + ARQ that emulates the exact
      semantics of {!Sync.run} on top of the faulty physical layer.
      Each logical round, every node sends one sequence-numbered frame
      per live neighbor (batching that round's payloads, possibly
      empty) and retransmits it until acknowledged; a node advances to
      logical round [r+1] once it holds every neighbor's round-[r]
      frame.  With [Fault.none] the user protocol sees bit-identical
      states and round counts to the raw engine (tested).
    - [Async.run ?reliable]: the asynchronous engine runs the same ARQ
      per channel below its [send]/[handler] interface (sequence
      numbers, dedup, in-order delivery, retransmission timers).

    Corrupted frames are treated as checksum failures — discarded on
    arrival and recovered by retransmission.  Crash faults are {e not}
    masked: a permanently crashed node stalls its neighbors (the layer
    guarantees delivery, not consensus); crash recovery is the job of
    [Fdlsp_core.Service] and the churn driver.

    Termination of [run_sync] is detected by the simulator globally
    (every participant halted), side-stepping the two-generals problem
    a real deployment would face on the final acknowledgment. *)

open Fdlsp_graph

type config = {
  timeout : float;
      (** rounds (sync) / time units (async) before the first
          retransmission; >= 1 *)
  backoff : float;  (** retransmission-interval multiplier; >= 1 *)
  max_interval : float;  (** cap on the backed-off interval *)
  max_retries : int option;
      (** per-message retransmission budget; [None] = keep trying
          (a permanently crashed receiver then stalls the run) *)
}

val default : config
(** [{ timeout = 4.; backoff = 2.; max_interval = 64.; max_retries = None }] *)

val run_sync :
  ?max_rounds:int ->
  ?weight:('msg -> int) ->
  ?faults:Fault.plan ->
  ?config:config ->
  ?blip:(Fault.blip -> 'state -> 'state) ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  Graph.t ->
  init:(int -> 'state * bool) ->
  step:('state, 'msg) Sync.step ->
  'state array * Stats.t
(** Drop-in replacement for {!Sync.run}: same protocol interface, same
    final states, but executed over the faulty channel described by
    [faults].  Stats count {e physical} frames: [rounds] is physical
    rounds until the last node halts, [messages]/[volume] include
    synchronizer frames, acks and retransmissions, and [retransmits]
    counts retransmissions alone — compare against the raw engine's
    stats to measure the cost of reliability.  [max_rounds] bounds
    physical rounds (default [10_000 + 100 * n]); a protocol stalled by
    an unrecoverable crash raises {!Sync.Did_not_terminate}.

    [trace] records {e physical} events: every frame (data, ack,
    retransmission) is a [Send], every consumed frame a [Recv], and each
    retransmission additionally emits [Retransmit] — so traced
    retransmit events reconcile exactly with the stats counter.

    [blip] applies the plan's state blips at {e physical}-round starts
    (blip times are physical rounds here); the corrupted state is
    whatever logical round the victim has reached, which is exactly the
    arbitrary-interleaving semantics self-stabilizing protocols must
    survive.

    [metrics] records under an [engine=reliable] label: the returned
    {e physical} stats via {!Metrics.add_stats}, a
    {!Metrics.Name.round_messages} series point per physical round, and
    a {!Metrics.Name.pending_frames} histogram observation (total
    unacked frames across nodes) per physical round.

    [spans] records a ["reliable.run"] span around the execution with
    one ["reliable.round"] child per physical round. *)

type sync_runner = {
  run :
    'state 'msg.
    ?max_rounds:int ->
    ?weight:('msg -> int) ->
    ?blip:(Fault.blip -> 'state -> 'state) ->
    ?metrics:Metrics.sink ->
    Graph.t ->
    init:(int -> 'state * bool) ->
    step:('state, 'msg) Sync.step ->
    'state array * Stats.t;
  faulty : bool;  (** false iff this engine adds physical channel
                      overhead (ARQ frames); blip-only plans stay raw *)
}
(** A first-class synchronous engine, so multi-phase algorithms
    (DistMIS and its MIS subroutines) can be parameterized over the
    channel without touching their protocol logic.  The per-call
    [?metrics] sink lets a multi-phase caller hand each phase its own
    labeled sink over a single engine value. *)

val raw_runner : sync_runner
(** {!Sync.run} itself. *)

val runner :
  ?faults:Fault.plan ->
  ?config:config ->
  ?trace:Trace.sink ->
  ?spans:Span.sink ->
  unit ->
  sync_runner
(** The reliable engine over [faults]; with an empty plan this is
    {!raw_runner} (or an instrumented {!Sync.run} when [trace] or
    [spans] is enabled), and with a {!Fault.lossless} plan (blips but a
    clean channel) it is the plain synchronous engine threading the
    blips. *)
