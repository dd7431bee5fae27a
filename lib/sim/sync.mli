(** Synchronous message-passing engine (the model of Sections 5–6).

    In each round every live node receives the messages sent to it in
    the previous round, computes, and sends at most one message per
    incident link.  The engine enforces locality: a node may only send
    to its graph neighbors.  Execution ends when every node has halted
    (or [max_rounds] is hit, which raises). *)

open Fdlsp_graph

type 'msg outcome =
  | Continue of (int * 'msg) list  (** messages to send: [(neighbor, payload)] *)
  | Halt of (int * 'msg) list  (** send these and stop participating *)

type ('state, 'msg) step = round:int -> int -> 'state -> (int * 'msg) list -> 'state * 'msg outcome
(** [step ~round v state inbox]: [inbox] is the list of [(sender,
    payload)] received this round.  Purely local: implementations must
    only look at [v]'s own state and inbox. *)

exception Did_not_terminate of int
(** Raised with [max_rounds] when the protocol fails to halt. *)

val sort_inbox : (int * 'msg) list -> (int * 'msg) list
(** The delivery order of an inbox: ascending sender id, then payload
    under [compare] for messages from the same sender — the order of
    [List.sort compare], without a polymorphic compare on the senders.
    Every synchronous engine delivers in this order. *)

val run :
  ?max_rounds:int ->
  ?weight:('msg -> int) ->
  ?faults:Fault.plan ->
  ?corrupt:('msg -> 'msg) ->
  ?blip:(Fault.blip -> 'state -> 'state) ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  Graph.t ->
  init:(int -> 'state * bool) ->
  step:('state, 'msg) step ->
  'state array * Stats.t
(** [init v] gives the initial state and whether the node participates
    at all ([false] = halted from the start, e.g. nodes outside the
    residual graph).  Halted nodes never step; messages sent to them are
    delivered into the void (counted, dropped).  [max_rounds] defaults
    to [10_000 + 100 * n].  [weight] gives a message's payload size for
    the [volume] statistic (default 1; clamped to at least 1).  Returns
    final states and stats; the round count is the number of rounds
    until the last node halts.

    [faults] injects channel and node faults (see {!Fault}): dropped
    messages vanish, duplicated ones are delivered twice, reordered
    copies arrive one round late (escaping the engine's FIFO
    discipline), and a node inside a crash window neither steps nor
    receives — messages addressed to it are counted as dropped; on
    recovery it resumes with its pre-crash state.  [corrupt] transforms
    payloads the fault plan marks as corrupted (identity when omitted).
    [blip] applies the plan's state blips: each blip whose time the
    round clock has crossed rewrites the victim's stored state at the
    start of the round, in [(time, node)] order, whether or not the node
    is live or inside a crash window (memory corrupts either way).
    Applied blips are counted in [Stats.corruptions] even when no hook
    is installed; blips naming nodes outside the graph are ignored.
    Protocols are {e not} expected to survive this raw engine — wrap
    them with {!Reliable.run_sync} for exactly-once FIFO delivery.

    [trace] (default {!Trace.null}) receives one {!Trace.event} per
    round boundary, transmission, user-level delivery, counted loss,
    channel duplicate, and plan crash/recovery boundary, all stamped
    with the round number.  With the null sink the engine skips event
    construction entirely.

    [metrics] (default {!Metrics.null}) receives, under an
    [engine=sync] label (unless the caller already set [engine]): the
    returned stats as the seven canonical counters (via
    {!Metrics.add_stats}, so [Metrics.to_stats] reproduces the returned
    record exactly), a {!Metrics.Name.round_messages} series point per
    round, and a {!Metrics.Name.inbox_depth} histogram observation per
    user-level delivery batch.

    [spans] (default {!Span.null}) records a ["sync.run"] span around
    the whole execution and one ["sync.round"] child per round.  With
    the null sink each wrapper is a single pattern match. *)
