(** Asynchronous message-passing engine (the model of Section 7).

    Event-driven execution: messages arrive after a per-hop delay
    (deterministic unit delay by default, or uniformly random in
    [lo, hi] to model asynchrony), channels are FIFO, and a node handles
    one message at a time.  The reported "rounds" figure is the
    completion time of the last delivery rounded up — with unit delays
    this is the longest causal chain, matching the paper's asynchronous
    time unit. *)

open Fdlsp_graph

type delay =
  | Unit  (** every hop takes exactly 1 time unit *)
  | Uniform of Random.State.t * float * float
      (** uniform in [lo, hi] with [0 < lo <= hi]; delays bounded by 1
          recover the classic normalized asynchronous time measure.
          Invalid bounds raise [Invalid_argument] when {!run} starts. *)

type 'msg ctx

val self : 'msg ctx -> int
val neighbors : 'msg ctx -> int array

val send : 'msg ctx -> int -> 'msg -> unit
(** Only to neighbors; raises [Invalid_argument] otherwise. *)

val now : 'msg ctx -> float

val set_timer : 'msg ctx -> float -> 'msg -> unit
(** [set_timer c delay payload] schedules a self-delivery of [payload]
    to the calling node after [delay] local time units — scaled by the
    node's drift rate (see {!run}'s [drift]), so a fast oscillator's
    timers fire early in simulation time.  Timer deliveries invoke the
    handler with [sender] = the node itself and bypass channels, the
    fault session and message accounting entirely; a timer on a crashed
    node fires into the void.  Raises [Invalid_argument] if
    [delay <= 0]. *)

type ('state, 'msg) handler = 'msg ctx -> 'state -> sender:int -> 'msg -> 'state
(** Called once per delivered message; may {!send} further messages. *)

exception Too_many_events of int

val run :
  ?delay:delay ->
  ?max_events:int ->
  ?weight:('msg -> int) ->
  ?faults:Fault.plan ->
  ?corrupt:('msg -> 'msg) ->
  ?blip:(Fault.blip -> 'state -> 'state) ->
  ?reliable:Reliable.config ->
  ?drift:(int -> float) ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  Graph.t ->
  init:(int -> 'state) ->
  starts:(int * ('msg ctx -> 'state -> 'state)) list ->
  handler:('state, 'msg) handler ->
  'state array * Stats.t
(** [starts] lists [(node, action)] spontaneous wake-ups executed at
    time 0 (e.g. the DFS root injecting the token).  [max_events]
    defaults to [1_000_000]; exceeding it raises {!Too_many_events}.
    [weight] gives a message's payload size for the [volume] statistic
    (default 1, clamped to at least 1).
    Returns final states and stats ([rounds] = ceiling of the last
    user-level delivery time, [messages] = messages sent, including
    acks and retransmissions of the reliable layer).

    [faults] injects channel/node faults (see {!Fault}): dropped
    messages never arrive, duplicates are delivered twice, reordered
    copies escape the per-channel FIFO clamp, corrupted payloads pass
    through [corrupt] (identity when omitted), and messages to a
    crashed node are dropped; a crashed node handles nothing until it
    recovers, and its spontaneous start is skipped if it is down at
    time 0.  [blip] applies the plan's state blips: each blip whose time
    the event clock has crossed rewrites the victim's stored state
    before the next event is handled, in [(time, node)] order; applied
    blips count in [Stats.corruptions] even without a hook, and a blip
    later than the last event never fires.

    [reliable] runs a per-channel ack/retransmit (ARQ) layer with
    exponential backoff underneath [send]/[handler]: sequence numbers,
    deduplication and in-order delivery give the protocol exactly-once
    FIFO semantics over the faulty channel, at the cost of acks and
    retransmissions (counted in [messages]/[retransmits]).  Corrupted
    frames are discarded as checksum failures and retransmitted.  A
    permanently crashed receiver makes the sender retransmit until
    [max_retries] (if set) or {!Too_many_events}; an exhausted budget
    abandons the message, counted in [Stats.gave_up] and traced as
    [Give_up].

    [drift] gives each node a clock-rate multiplier applied to every
    {!set_timer} delay (default 1 for all nodes; a rate [<= 0] raises
    [Invalid_argument] at the first timer).  Message delays are
    unaffected — drift models local oscillators, not the channel.

    [trace] (default {!Trace.null}) records every transmission ([Send],
    including acks and retransmissions — one per counted message),
    user-level delivery ([Recv], so the summary's round measure matches
    the [rounds] statistic), counted loss ([Drop]), channel duplicate,
    ARQ retransmission ([Retransmit], reconciling with the
    [retransmits] counter), and plan crash/recovery boundary, stamped
    with the simulation clock.  Tracing never perturbs the event heap:
    a traced run is event-for-event identical to an untraced one.

    [metrics] (default {!Metrics.null}) records under an [engine=async]
    label (unless the caller already set [engine] for a layer it runs
    over this engine): the returned stats via {!Metrics.add_stats} (so
    [Metrics.to_stats] reproduces the returned record exactly), a
    {!Metrics.Name.queue_depth} histogram observation per popped event,
    and a {!Metrics.Name.round_messages} series point (cumulative sends
    against the clock) per user-level delivery.  Like tracing, metrics
    never perturb the event heap.

    [spans] (default {!Span.null}) records a single ["async.run"] span
    around the delivery loop — per-event spans would swamp the bounded
    ring, so callers wanting finer structure add their own spans in
    handlers. *)
