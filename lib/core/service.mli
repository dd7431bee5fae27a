(** Long-lived scheduling service: batched churn between slot queries.

    {!Local_update} repairs one topology event at a time as a
    distributed protocol; a deployed scheduler absorbs {e streams}.
    This module owns a mutable schedule and ingests {e batches} of
    [Join]/[Leave]/[Move]/[Degrade] events (a single event is a batch
    of one: {!Churn} and the repair-drift ablation feed it that way).  Each batch is first {b coalesced} (per-node net effect:
    duplicates deduped, a join cancelled by a later leave, consecutive
    moves merged into the last one, degrades deduplicated and dropped
    when subsumed by a node op), then {b repaired incrementally}: the
    batch edits only the adjacency rows of the nodes it touches (a
    per-node overlay over the last compacted graph), colors of arcs
    untouched by the batch are carried over, and only arcs incident to
    joined or moved nodes are first-fit recolored — the
    coarse-repair-then-refine split of Bhatia–Hansdah.  A batch costs
    O(touched arcs · Δ²) and allocates nothing proportional to the
    graph.  The colors are exactly those a rebuild of the whole
    post-batch graph followed by the same passes would give.  The
    refine pass enforces the Lemma-6 slot budget: after every batch
    the schedule is Definition-2 valid and uses at most
    {!Fdlsp_color.Bounds.upper} slots of the {e current} graph, the
    same budget a from-scratch first-fit obeys (carried colors could
    otherwise drift above it as the graph shrinks).

    Between batches, slot queries read one adjacency row — no repair
    work, no allocation.  The views {!graph}, {!schedule},
    {!snapshot} and {!equal} first fold the overlay into a new
    compacted graph and schedule: O(m) on the first read after a
    batch, then O(1) until the next one.  {!apply} also compacts on
    its own once the overlay passes a fixed fraction of the graph, so
    a caller that never reads a view holds a bounded overlay.

    Batch semantics, in order of application:
    - node ids are never recycled downward: [Leave] marks a node dead
      (its links drop, validity is monotone), [Join] revives a dead
      ghost or extends the id space by one ([node = nodes t]); fresh
      ids inside one batch must be consecutive from [nodes t];
    - a [Move] re-homes a node onto a new neighbor list (reviving it if
      dead — a leave followed by a rejoin coalesces to exactly this);
    - neighbor lists take union semantics: a link [{u, v}] exists after
      the batch when either endpoint's op names the other.  Neighbors
      that are dead after the batch are dropped silently (a leave in
      the same batch wins over links to the leaver);
    - [Degrade] removes one existing link (a degraded radio edge);
      degrades of links touched by a node op in the same batch are
      subsumed and dropped.

    Malformed events — out-of-range ids, self-links, joining a live
    node, non-consecutive fresh ids, degrading a missing link — raise
    [Invalid_argument] and leave the service untouched. *)

open Fdlsp_color

type event =
  | Join of { node : int; neighbors : int list }
  | Leave of int
  | Move of { node : int; neighbors : int list }
  | Degrade of { u : int; v : int }

(** Net per-batch operations after coalescing, in application order
    (leaves, then moves, then joins, then degrades; each ascending).
    Exposed for the coalescer's own tests. *)
type op =
  | Op_leave of int
  | Op_move of int * int list  (** sorted, deduped neighbor list *)
  | Op_join of int * int list
  | Op_degrade of int * int  (** canonical [u < v] *)

type totals = {
  batches : int;  (** batches applied, including empty ones *)
  events : int;  (** raw events ingested, before coalescing *)
  ops : int;  (** net operations applied after coalescing *)
  recolored : int;  (** arc colorings across all repairs — the cost metric *)
}

(** Per-batch repair receipt. *)
type batch = {
  b_events : int;  (** raw events in this batch *)
  b_ops : int;  (** net ops after coalescing *)
  b_recolored : int;  (** arc colorings performed (incl. refine) *)
  b_touched : int;  (** distinct arcs written *)
  b_touched_frac : float;
      (** [b_touched / Arc.count graph] — repair locality; exactly [0.]
          for a batch that coalesces to nothing *)
  b_slots : int;  (** slots in use after the batch *)
}

type t

val create :
  ?metrics:Fdlsp_sim.Metrics.sink ->
  ?spans:Fdlsp_sim.Span.sink ->
  ?refine:bool ->
  Schedule.t ->
  t
(** [create sched] starts a service from a valid complete schedule (the
    schedule is copied; raises [Invalid_argument] otherwise).  All nodes
    start alive.  [refine] (default [true]) enables the post-batch slot
    budget enforcement; {!Churn} disables it to measure raw drift.

    [spans] (default {!Fdlsp_sim.Span.null}) instruments every batch:
    {!apply} records a ["service.coalesce"] span and a
    ["service.repair"] span whose children break the repair down into
    ["service.rebuild"] (the overlay edit, and the compaction when
    {!apply} compacts on its own),
    ["service.recolor"] (first-fit of the batch's fresh arcs) and
    ["service.refine"] (slot-budget enforcement). *)

(** {1 Queries} *)

val nodes : t -> int
(** Size of the id space, dead ghosts included. *)

val live : t -> int
(** Live nodes, O(1). *)

val alive : t -> int -> bool
val graph : t -> Fdlsp_graph.Graph.t
(** Current topology (live links only).  O(m) on the first call after
    a batch, O(1) after that.  A later {!apply} never changes a graph
    returned earlier. *)

val schedule : t -> Schedule.t
(** The current schedule, over the arc ids of {!graph} — shared, do not
    mutate.  Same cost as {!graph}; a later {!apply} never changes a
    schedule returned earlier. *)

val num_slots : t -> int
(** Slots in use, O(1) from the per-color arc counts. *)

val totals : t -> totals

val slot_of_arc : t -> int -> int -> int option
(** [slot_of_arc t u v] is the slot of arc [u -> v], [None] when
    [{u, v}] is not a live link.  One [O(log deg u)] lookup in [u]'s
    adjacency row — no repair work, no allocation, no compaction. *)

(** {1 Ingest} *)

val coalesce : t -> event list -> op list
(** The batch coalescer alone, no application. *)

val apply : t -> event list -> batch
(** Coalesce and apply one batch.  After return the schedule is
    Definition-2 valid and (with [refine]) within
    [Bounds.upper (graph t)] slots.  An empty net batch is a fast path
    that provably touches zero arcs; a batch consisting entirely of
    moves that re-home live nodes onto exactly their current
    neighborhoods (a net effect that is already applied — e.g. a
    replayed duplicate) coalesces to that same fast path, making batch
    repair idempotent.  Raises [Invalid_argument] on malformed events,
    leaving the state unchanged. *)

(** {1 Snapshot / restore}

    A snapshot is a self-describing text blob: header, totals, the
    alive bitmap, the graph ({!Fdlsp_graph.Io} format), the schedule
    ({!Schedule.to_string}), and a trailing MD5 checksum line.
    [restore (snapshot t)] is state-identical to [t]: replaying the
    tail of an event log after a restore gives exactly the run that
    never snapshotted. *)

val snapshot : t -> string

val restore :
  ?metrics:Fdlsp_sim.Metrics.sink -> ?spans:Fdlsp_sim.Span.sink -> string -> t
(** Raises [Failure] on malformed input or checksum mismatch
    (tampered or truncated snapshot). *)

val equal : t -> t -> bool
(** Exact state equality: id space, alive set, graph, colors (not up
    to renaming), refine flag, and cumulative totals. *)

(** {1 JSONL event streams}

    One event per line, like {!Fdlsp_sim.Trace}:
    [{"ev":"join","node":5,"neighbors":[1,2]}],
    [{"ev":"leave","node":3}], [{"ev":"move",...}],
    [{"ev":"degrade","u":1,"v":2}].  The marker [{"ev":"flush"}]
    forces a batch boundary. *)

val event_to_json : event -> string
val flush_json : string

val line_of_string : string -> [ `Event of event | `Flush ]
(** Raises [Failure] with a description on malformed lines. *)

(** {1 Synthetic churn} *)

val synth : t -> seed:int -> events:int -> batch:int -> event list list
(** [synth t ~seed ~events ~batch] generates a deterministic stream of
    [events] valid events in batches of [batch], evaluated against a
    throwaway copy of [t] so every event is legal at its batch boundary
    (joins of fresh and ghost nodes, leaves, moves, degrades of live
    links).  [t] itself is not modified.  Raises [Invalid_argument]
    when [batch < 1] or [events < 0]. *)
