(** Admission control for the scheduling service's ingest path.

    {!Service.apply} trusts its caller; a deployed ingest loop cannot.
    This module sits between event sources and the service and makes
    every overload decision {e explicit} — no unbounded buffering,
    every outcome counted ([fdlsp_admission_*] metrics) and logged:

    - {b Structural limits}: batches above [max_batch] events, events
      naming node ids outside [[0, max_node]], and batches whose
      per-node link churn exceeds [max_degree_delta] are rejected
      outright — they never reach the service, so an adversarial
      stream cannot grow the id space or the repair frontier without
      bound.
    - {b Per-source token buckets}: each source accrues [rate] tokens
      per second up to [burst]; a batch of [k] events costs [k]
      tokens.  A source out of tokens is {e deferred} (parked in the
      bounded queue, charged when tokens accrue) up to [defer_cap]
      queued events per source, then rejected — one flooding source
      cannot starve the rest.  Deferral preserves per-source order: a
      source with parked batches keeps deferring even once it can pay,
      so its stream is never reordered.
    - {b Bounded ingress queue}: ready and deferred batches share one
      queue capped at [queue_cap] events.  A full queue rejects; queue
      depth is an invariant the chaos suite machine-checks.
    - {b Degraded mode}: when the queue fills past [degrade_high]
      (fraction of capacity) the controller sheds refinement work —
      [Move] and [Degrade] events are dropped (counted) while [Join]
      and [Leave] still flow, the Bhatia–Hansdah fast-coarse posture:
      under sustained overload the schedule stays valid and nodes keep
      entering and leaving, only slot-quality churn is sacrificed.
      Hysteresis: normal mode resumes below [degrade_low].

    Time is explicit ([now], seconds, monotone per controller): callers
    own the clock, so tests and the chaos harness are deterministic. *)

type reason =
  | Rate_limited  (** token bucket empty and the source's defer slice full *)
  | Queue_full
  | Batch_too_large
  | Node_out_of_range
  | Degree_delta_exceeded

val reason_to_string : reason -> string

type outcome =
  | Admitted  (** queued for {!poll}; tokens paid *)
  | Deferred  (** queued; will be charged and released when tokens accrue *)
  | Rejected of reason  (** dropped; nothing buffered *)

type limits = {
  rate : float;  (** tokens (events) per second per source; [infinity] = unlimited *)
  burst : float;  (** token bucket capacity *)
  queue_cap : int;  (** max queued events, ready + deferred *)
  defer_cap : int;  (** max deferred events per source *)
  max_batch : int;  (** max events per batch *)
  max_node : int;  (** largest admissible node id *)
  max_degree_delta : int;  (** max link-endpoint mentions per node per batch *)
  degrade_high : float;  (** queue fill fraction entering degraded mode *)
  degrade_low : float;  (** queue fill fraction leaving degraded mode *)
}

val default_limits : limits
(** [rate = 256.], [burst = 512.], [queue_cap = 1024],
    [defer_cap = 128], [max_batch = 256], [max_node = 1_000_000],
    [max_degree_delta = 64], [degrade_high = 0.75],
    [degrade_low = 0.25]. *)

type counts = {
  c_admitted : int;  (** batches *)
  c_deferred : int;  (** batches *)
  c_rejected : int;  (** batches *)
  c_shed : int;  (** individual [Move]/[Degrade] events shed *)
  c_released : int;  (** deferred batches later released by {!poll} *)
}

type t

val create :
  ?metrics:Fdlsp_sim.Metrics.sink ->
  ?spans:Fdlsp_sim.Span.sink ->
  ?limits:limits ->
  unit ->
  t
(** Raises [Invalid_argument] on nonsensical limits (non-positive
    capacities, [degrade_low > degrade_high], negative rate).

    [spans] marks every verdict as an instantaneous span event:
    ["admission.admitted"] / ["admission.deferred"] (with the batch's
    token cost) and ["admission.rejected"] (with the {!reason}), so a
    flight-recorder dump shows the admission story interleaved with the
    repair spans. *)

val offer : t -> source:int -> now:float -> Service.event list -> outcome
(** Classify and (unless rejected) enqueue one batch.  [now] must be
    non-decreasing per controller (raises [Invalid_argument]
    otherwise).  In degraded mode, [Move]/[Degrade] events are shed
    from the batch before queueing. *)

val poll : t -> now:float -> Service.event list option
(** Release the next ready batch in arrival order: first any admitted
    batch, then the oldest deferred batch of the first source whose
    bucket can now pay for it.
    Batches shed down to empty are dropped silently (their events were
    already counted).  [None] when nothing can be released at [now]. *)

val next_release : t -> float option
(** The earliest [now] at which {!poll} releases a batch if nothing
    more is offered: the last [now] seen while an admitted batch is
    queued, otherwise the moment the first source can pay for its
    oldest deferred batch.  [None] when nothing queued can ever be
    released — the queue is empty, or every such batch costs more than
    [burst]. *)

val queue_depth : t -> int
(** Queued events, ready + deferred — never exceeds
    [limits.queue_cap]. *)

val degraded : t -> bool
val counts : t -> counts
