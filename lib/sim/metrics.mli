(** Metrics registry: labeled counters, gauges, log-bucketed histograms
    and timeline series, with a cheap [sink] handle threaded as
    [?metrics] through the engines ({!Sync}, {!Async}, {!Reliable},
    {!Parallel}) and the protocols built on them.

    The model mirrors {!Trace}: recording goes through a sink that is
    either {!null} (every call a no-op, the default everywhere) or bound
    to a registry with a set of pre-applied labels.  Engines label their
    records with [engine=...], protocols with [algo=...]/[phase=...];
    {!with_label} only adds a label when the key is absent, so outer
    layers win.  {!Stats.t} is a derived view of the registry: each
    engine records the exact record it returns via {!add_stats}, so
    {!to_stats} over the same labels reproduces it (reconciled in
    [test/test_metrics.ml] and by [Trace.Replay.check ?metrics]). *)

type t
(** A registry: a mutable collection of named, labeled metrics. *)

type labels = (string * string) list
(** Label sets are canonicalized: sorted by key, first binding wins. *)

type sink
(** A recording handle: {!null}, or a registry plus labels and a
    counter scale factor. *)

val create : unit -> t

(** {1 Sinks} *)

val null : sink
(** Discards everything, allocation-free. *)

val sink : ?labels:labels -> t -> sink
(** A sink writing into [t] with the given base labels (scale 1). *)

val enabled : sink -> bool
(** [false] exactly for {!null}; guard per-event observations with it. *)

val registry : sink -> t option
val sink_labels : sink -> labels

val with_label : sink -> string -> string -> sink
(** [with_label m k v] adds label [k=v] {e unless [k] is already
    bound} — outer layers' labels survive inner defaults. *)

val with_scale : int -> sink -> sink
(** [with_scale k m] multiplies subsequent {e counter} increments by
    [k] (composing multiplicatively); gauges, histograms and series are
    unaffected.  The metrics analogue of [Stats.scale_rounds]: a
    sub-protocol simulated once but charged [k] times. *)

(** {1 Recording} *)

val inc : ?by:int -> sink -> string -> unit
(** Bump a counter (default [by:1]), scaled by the sink's scale. *)

val gauge : sink -> string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : sink -> string -> float -> unit
(** Add one observation to a log-bucketed histogram. *)

val sample : sink -> string -> x:float -> float -> unit
(** Append an [(x, value)] point to a timeline series (x is a round
    number or engine clock).  Capped at an internal capacity; the total
    push count is retained either way. *)

val add_stats : sink -> Stats.t -> unit
(** Record every field of a {!Stats.t} into the seven canonical
    counters ({!Name.rounds} … {!Name.corruptions}), scaled like any
    other counter increment.  Engines call this once, at end of run,
    with exactly the record they return. *)

val timed : sink -> string -> (unit -> 'a) -> 'a
(** [timed m name f] runs [f] and records, under [name]:
    [name_seconds] (a histogram of {!Clock.now} durations — monotone,
    so an NTP step cannot produce a negative observation),
    [name_alloc_words_total] (GC-allocated words, minor + major -
    promoted deltas) and [name_major_collections_total].  With the null
    sink it is exactly [f ()].  Records even when [f] raises. *)

(** {1 Histograms} *)

module Hist : sig
  (** Log-bucketed histogram over a fixed powers-of-two ladder
      (upper bounds [2^-20 .. 2^30], plus [+Inf]). *)

  type t

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  (** [+inf] when empty. *)

  val max_value : t -> float
  (** [-inf] when empty. *)

  val merge : t -> t -> t
  (** Pointwise bucket sum — exact on counts, associative and
      commutative (floating [sum] up to rounding). *)

  val quantile : t -> float -> float
  (** [quantile h q] ([q] clamped to [0,1]): the upper bound of the
      bucket holding the [ceil (q*count)]-th observation, clamped into
      [[min_value, max_value]] — so always within the observed range
      and monotone in [q].  NaN when empty. *)

  val buckets : t -> (float * int) array
  (** Per-bucket [(upper bound, count)], non-cumulative; the last
      bucket's bound is [+inf]. *)

  val cumulative : t -> (float * int) array
  (** Per-bucket [(upper bound, count <= bound)], non-decreasing, last
      entry equals {!count}. *)
end

(** {1 Reading} *)

val counter_value : ?labels:labels -> t -> string -> int
(** Sum of every counter named [name] whose label set contains all of
    [labels] (default: every label set). *)

val gauge_value : ?labels:labels -> t -> string -> float option
(** The matching gauge's value; with several matches, the one with the
    smallest label set (deterministic). *)

val histogram : ?labels:labels -> t -> string -> Hist.t option
(** Merge of every matching histogram. *)

val series_points : ?labels:labels -> t -> string -> (float * float) list
(** All matching series' points, sorted by x. *)

val to_stats : ?labels:labels -> t -> Stats.t
(** The derived {!Stats.t} view: read the seven canonical counters
    under the filter.  Equal to the sum of the [Stats.t] records
    returned by every engine run recorded under those labels. *)

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst]: counters add, gauges overwrite, histograms
    merge, series append. *)

val fork : sink -> (t * sink) option
(** [fork m] is a fresh private registry plus a sink on it carrying
    [m]'s labels and scale, or [None] for the null sink.  The registry
    behind a sink is not thread-safe, so the {!Parallel} engine forks
    one sink per shard and folds the private registries back into [m]'s
    registry with {!merge_into} at the terminal barrier (exact counter
    counts; histogram [sum]s may differ from a sequential run in float
    rounding only, since addition order changes). *)

(** {1 Sliding windows}

    A {!Window.w} is a baseline snapshot of per-name aggregates
    (counters summed across label sets, histograms merged across label
    sets).  Deltas against the live registry give "since last sample"
    rates and quantiles — the substrate of [fdlsp serve
    --health-every].  Every delta is [current - baseline] and
    {!Window.advance} re-baselines to exactly the values just read, so
    the sum of a run's window deltas equals its final counters. *)
module Window : sig
  type w

  val start : t -> w
  (** Snapshot the registry as the baseline. *)

  val advance : w -> unit
  (** Re-baseline to the registry's current values; subsequent deltas
      are relative to this instant. *)

  val counter_delta : w -> string -> int
  (** Counter sum now minus at baseline (all label sets). *)

  val observations : w -> string -> int
  (** Histogram observation count added since baseline. *)

  val sum_delta : w -> string -> float
  (** Histogram sum added since baseline. *)

  val quantile : w -> string -> float -> float
  (** Quantile of the observations added since baseline (bucket-wise
      histogram subtraction; min/max approximated by the delta's
      nonzero bucket edges).  NaN when nothing was observed. *)
end

(** {1 Exposition} *)

val to_kv : t -> string
(** Stable, diff-friendly text: one sorted [name{k=v,...} value] line
    per scalar.  Histograms expand to [_count]/[_sum]/[_min]/[_max]/
    [_p50]/[_p90]/[_p99]; series to [_points]/[_last_x]/[_last]. *)

val to_json : t -> string
(** One JSON object [{"metrics":[...]}] with per-metric kind, labels,
    value, histogram buckets and series points. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# TYPE] lines (one per metric name —
    enforced at registration: a name has one kind across all label
    sets), counter/gauge samples, and cumulative
    [_bucket{le=...}]/[_sum]/[_count] histogram triples.  Series are
    omitted (no Prometheus equivalent; use kv or JSON). *)

(** {1 Canonical metric names} *)

module Name : sig
  val rounds : string  (** ["fdlsp_rounds_total"] *)

  val messages : string
  val volume : string
  val dropped : string
  val duplicated : string
  val retransmits : string

  val gave_up : string
  (** ["fdlsp_gave_up_total"]: messages abandoned after an exhausted
      retransmit budget. *)

  val corruptions : string

  val round_messages : string
  (** Series: messages sent per round (sync engines, x = round) or
      cumulative sends at user-delivery times (async, x = clock). *)

  val inbox_depth : string  (** Histogram: [Sync.run] per-delivery inbox size. *)

  val queue_depth : string  (** Histogram: [Async.run] event-heap size per event. *)

  val pending_frames : string
  (** Histogram: [Reliable.run_sync] unacked frames per physical round. *)

  val mis_joins : string
  val colors : string
  val token_moves : string
  val detects : string
  val recolorings : string

  val recolor_activity : string
  (** Series: cumulative recolorings over rounds ([Stabilize]). *)

  val outer_iters : string
  val inner_iters : string

  val slots : string  (** Gauge: slot count of the produced schedule. *)

  val frame_sleep_fraction : string
  (** Gauge: mean fraction of slots a node's radio is off ([Frame]). *)

  val frame_join_latency : string
  (** Gauge: mean time units from losing (or cold-starting without)
      sync to completing the JOIN handshake. *)

  val frame_resyncs : string
  val frame_desyncs : string
  val frame_collisions : string

  val service_events : string
  (** Counter: raw events ingested by the scheduling service. *)

  val service_ops : string
  (** Counter: net operations applied after batch coalescing. *)

  val service_batches : string
  val service_recolored : string
  (** Counter: arc colorings across all incremental repairs. *)

  val service_batch_size : string  (** Histogram: raw events per batch. *)

  val service_repair : string
  (** {!timed} prefix for one batch repair — the latency histogram is
      ["fdlsp_service_repair_seconds"]. *)

  val service_touched_frac : string
  (** Gauge: fraction of arcs written by the last batch (locality). *)

  val wal_appends : string
  (** Counter: segments appended to the write-ahead log. *)

  val wal_bytes : string
  (** Counter: bytes appended to the write-ahead log. *)

  val wal_snapshots : string
  (** Counter: durable snapshots written (manual + auto). *)

  val wal_replayed : string
  (** Counter: WAL segments applied during recovery. *)

  val wal_skipped : string
  (** Counter: recovery segments skipped (snapshot-covered or invalid). *)

  val admission_admitted : string
  (** Counter: batches admitted by the admission controller. *)

  val admission_rejected : string
  (** Counter: batches rejected, labeled [reason=...]. *)

  val admission_deferred : string
  (** Counter: batches parked in the deferred queue (rate limit). *)

  val admission_shed : string
  (** Counter: refinement events ([Move]/[Degrade]) shed in degraded
      mode. *)

  val admission_queue_depth : string
  (** Gauge: queued events (ready + deferred) after the last call. *)

  val admission_degraded : string
  (** Gauge: 1 while the controller is in degraded mode, else 0. *)

  val parallel_shards : string
  (** Gauge: number of shards (domains) the parallel engine ran with. *)

  val parallel_barrier_frac : string
  (** Gauge: fraction of the parallel section's aggregate capacity
      ([shards x wall-clock]) spent waiting at round barriers rather
      than stepping nodes.  0 = perfectly balanced shards. *)

  val parallel_cut_frac : string
  (** Gauge: fraction of edges crossing shard boundaries under the
      partition the run used. *)
end
