(** Synchronous protocols executed on the asynchronous engine.

    A synchronizer in the style of {!Reliable.run_sync}, but running
    over {!Async.run}'s reliable FIFO transport instead of a faulty
    physical layer: each node batches one frame per neighbor per logical
    round and advances once it holds every live neighbor's previous
    frame.  The user protocol — any [init]/[step] pair written for
    {!Sync.run} — sees bit-identical rounds, inboxes and final states,
    which is what the cross-engine determinism tests exercise: the same
    algorithm must produce the same schedule no matter which engine
    carries its messages. *)

open Fdlsp_graph
open Fdlsp_sim

val run_async :
  ?max_rounds:int ->
  ?weight:('msg -> int) ->
  ?delay:Async.delay ->
  ?blips:Fault.blip list ->
  ?blip:(Fault.blip -> 'state -> 'state) ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  Graph.t ->
  init:(int -> 'state * bool) ->
  step:('state, 'msg) Sync.step ->
  'state array * Stats.t
(** Same protocol interface as {!Sync.run}.  Stats come from the
    underlying asynchronous engine and count synchronizer frames, not
    user messages; [rounds] is the ceiling of the last delivery time.
    [max_rounds] bounds logical rounds (translated to an event budget);
    [delay] defaults to {!Async.Unit}.

    [blips] + [blip] thread state corruptions through the asynchronous
    clock: each blip fires once the event clock crosses [b_at] and
    rewrites the victim's synchronizer-held protocol state (whatever
    logical round it has reached), counted in [Stats.corruptions].

    [metrics] is forwarded to the asynchronous engine with the [engine]
    label pre-set to [lockstep] (so the registry distinguishes the
    synchronizer from a plain async run); the engine records its
    returned stats, queue depths and cumulative-send series under it.

    [spans] records a ["lockstep.run"] span with the engine's
    ["async.run"] span nested inside it. *)

val runner :
  ?delay:Async.delay ->
  ?trace:Trace.sink ->
  ?blips:Fault.blip list ->
  ?spans:Span.sink ->
  unit ->
  Reliable.sync_runner
(** The adapter as a first-class engine, pluggable anywhere a
    {!Reliable.sync_runner} is accepted (e.g. [Dist_mis.run ?engine]).
    [blips] fixes the corruption plan at engine-construction time; the
    per-run [?blip] hook supplies the state rewrite. *)
