(** Domain-parallel synchronous engine — {!Sync} sharded across OCaml 5
    domains, bit-identical to the sequential engine on fault-free,
    untraced runs.

    The graph is partitioned into [domains] shards
    ({!Fdlsp_graph.Partition.of_graph}); each shard's nodes are stepped
    by a dedicated domain, and cross-shard messages are exchanged at
    round barriers.  A round's inboxes are fixed at the barrier and
    every inbox is sorted before delivery, so the message {e multiset}
    determines each step: shards step their own nodes concurrently,
    route same-shard messages directly and cross-shard messages through
    per-(source, destination)-shard buckets drained by the owner after
    the next barrier.  Message and volume counters are summed per shard
    — integer sums, so stats are exact.

    Fault verdicts draw from one PRNG in transmission order, crashed
    nodes drop their {e raw-order} inboxes, and trace events form a
    total order, so faulty and traced runs are inherently sequential:
    {!runner} sends them to {!Reliable.runner}.

    Each shard gets a private {!Metrics} registry (via {!Metrics.fork})
    merged into the caller's at the terminal barrier with the exact-
    count merge; the caller's span sink sees ["parallel.round"] with
    ["parallel.compute"] / ["parallel.exchange"] children and one
    ["parallel.shard-summary"] mark per shard, so [fdlsp profile] shows
    the barrier/compute split directly. *)

open Fdlsp_graph

val run :
  ?max_rounds:int ->
  ?weight:('msg -> int) ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  ?points:Geometry.point array ->
  domains:int ->
  Graph.t ->
  init:(int -> 'state * bool) ->
  step:('state, 'msg) Sync.step ->
  'state array * Stats.t
(** Drop-in replacement for a fault-free, untraced {!Sync.run} (same
    defaults, same [Sync.Did_not_terminate], same non-neighbor send
    rejection), plus:

    [domains] is the target shard count, clamped to [1 .. n].  With
    [domains = 1] no worker domains are spawned; the engine still runs
    its barrier loop on the calling domain.

    The engine partitions with {!Partition.of_graph} — geometric strips
    when [points] match the graph, BFS regions otherwise.

    The protocol callbacks must tolerate concurrency across {e
    different} nodes: [step ~round v] may run concurrently with [step
    ~round w] for [w] in another shard (never for two nodes of the same
    shard, and [init] is always called sequentially).  Protocols whose
    steps share mutable state (a common scratch, a shared RNG) are
    engine-order-dependent anyway and must be fixed first — see
    [Mis.Hashed] vs [Mis.Luby].

    [metrics] additionally records gauges {!Metrics.Name.parallel_shards},
    {!Metrics.Name.parallel_barrier_frac} and
    {!Metrics.Name.parallel_cut_frac} under the [engine=parallel]
    label.  Histogram counts merge exactly; histogram float [sum]s can
    differ from a sequential run in rounding only (addition order).

    If a shard's work raises, the exception is re-raised on the calling
    domain after the barrier (the lowest-numbered failing shard wins
    deterministically); worker domains are always joined, even on
    exceptions. *)

val runner :
  ?faults:Fault.plan ->
  ?config:Reliable.config ->
  ?trace:Trace.sink ->
  ?spans:Span.sink ->
  ?points:Geometry.point array ->
  ?threshold:int ->
  domains:int ->
  unit ->
  Reliable.sync_runner
(** A {!Reliable.sync_runner} that routes engine runs through {!run} —
    the parallel analogue of {!Reliable.runner}, accepted anywhere an
    [?engine] is (e.g. [Dist_mis.run]).  It is the single place that
    picks the engine:

    - a fault plan other than {!Fault.none}, or an enabled [trace],
      returns [Reliable.runner ~faults ?config ~trace ~spans ()]
      unchanged — raw {!Sync} for blip-only plans, the ARQ synchronizer
      ([faulty = true]) for lossy or crashing ones;
    - otherwise runs take {!run} when [domains > 1] and the graph has at
      least [threshold] nodes (default 2048), and the sequential engine
      in every other case: spawning domains costs more than stepping a
      small graph, and the two engines are bit-identical, so the switch
      is unobservable in results.  Pass [~threshold:0] to force the
      parallel machinery always (the determinism property does). *)
