(** Structured event tracing for both simulation engines, and the replay
    checker that re-validates a finished run from its trace alone.

    A trace is a stream of {!timed} events: engine-level channel events
    (send / recv / drop / duplicate / retransmit), round markers, node
    crash / recovery transitions, and algorithm-level phase markers and
    decisions ("joined the MIS", "colored arc [a] with slot [c]").  The
    engines and algorithms emit into a {!sink}: {!null} (the default —
    no events are even constructed), a bounded in-memory ring buffer
    ({!memory}), or a JSONL channel/file writer.

    {b Timeline semantics.}  Event times are {e engine-local}: each
    engine run restarts its clock (round 1 / time 0), so a multi-phase
    algorithm like DistMIS produces a trace whose authoritative order is
    {e stream order}, with {!Phase} markers delimiting the engine runs.
    A [Phase] marker's [scale] records how many physical rounds one
    traced round of that segment costs (e.g. the distance-3 relay of
    DistMIS's secondary MIS), so aggregate {!Stats.t} figures can be
    reconciled exactly: [stats.rounds = sum over segments of
    scale * rounds-in-segment], and likewise for messages, drops,
    duplicates and retransmissions. *)

open Fdlsp_graph

type event =
  | Round_start of int
  | Round_end of int
  | Send of { src : int; dst : int }  (** one point-to-point transmission *)
  | Recv of { src : int; dst : int }  (** one user-level delivery *)
  | Drop of { src : int; dst : int }
      (** a counted loss: channel drop, checksum failure, delivery to a
          crashed node, or an exhausted retransmission budget *)
  | Duplicate of { src : int; dst : int }
      (** the channel injected a second copy of this transmission *)
  | Retransmit of { src : int; dst : int }
      (** the reliable layer re-sent an unacknowledged frame *)
  | Give_up of { src : int; dst : int }
      (** the reliable layer exhausted its bounded retransmit budget and
          abandoned the message *)
  | Crash of int
  | Recover of int
  | Phase of { label : string; scale : int }
      (** starts a new segment; [scale] = physical rounds per traced
          round of the segment (1 unless the phase is relayed) *)
  | Mis_join of int  (** decision: node joined the (primary) MIS *)
  | Color of { node : int; arc : Arc.id; slot : int }
      (** decision: [node] assigned [slot] to its incident arc [arc] *)
  | Corrupt_state of { node : int; arc : int; slot : int }
      (** a fault-plan blip fired on [node]: [arc >= 0] means the arc's
          stored slot was overwritten with [slot]; [arc = -1] (with
          [slot = -1]) means the node's cached view of {e other} owners'
          colors was scrambled, leaving the schedule itself untouched *)
  | Detect of { node : int; arc : Arc.id }
      (** [node] flagged its own arc [arc] as conflicting or uncolored *)
  | Recolor of { node : int; arc : Arc.id; slot : int }
      (** repair decision: [node] moved its own arc [arc] to [slot] *)
  | Beacon_loss of { node : int; frame : int }
      (** frame runtime: a synced node finished [frame] without hearing
          a SYNC beacon *)
  | Desync of { node : int; frame : int }
      (** frame runtime: [node] missed the resync threshold of
          consecutive beacons and stopped transmitting data *)
  | Resync of { node : int; frame : int }
      (** frame runtime: [node] regained frame sync (always paired with
          a {!Join} at the same timestamp) *)
  | Join of { node : int; parent : int }
      (** frame runtime: the JOIN-slot handshake with [parent] completed *)
  | Sleep of { node : int; slots : int }
      (** frame runtime: [node] kept its radio off for [slots] slots of
          the frame that just ended (energy accounting) *)

type timed = { t : float; ev : event }
(** [t] is the emitting engine's local clock (the round number for the
    synchronous engines). *)

val compare_boundary : float * event -> float * event -> int
(** The order of plan crash/recovery boundary lists inside the engines:
    ascending time, {!Crash} before {!Recover} at equal times (so a
    crash window's alternation survives the sort), then node.  Explicit
    so it cannot drift with the constructor declaration order. *)

(** {2 Sinks} *)

type sink

val null : sink
(** Discards everything.  Engines detect it up front and skip event
    construction entirely, so a disabled trace costs nothing. *)

val memory : ?capacity:int -> unit -> sink
(** Bounded ring buffer keeping the most recent [capacity] events
    (default [1_048_576]); older events are overwritten, counted by
    {!overwritten}. *)

val to_channel : out_channel -> sink
(** Streams each event as one JSON line (see {!event_to_json}).  The
    caller owns the channel; prefer {!open_writer} for self-contained
    trace files. *)

val enabled : sink -> bool
(** [false] only for {!null}. *)

val emit : sink -> t:float -> event -> unit
val seen : sink -> int
(** Events emitted into this sink (including overwritten ones). *)

val events : sink -> timed array
(** Buffered events in emission order.  Raises [Invalid_argument] on a
    channel sink (its events are already on the wire). *)

val overwritten : sink -> int
(** Events lost to ring-buffer wraparound (0 for other sinks). *)

(** {2 JSONL encoding} *)

val event_to_json : timed -> string
(** One flat JSON object, no trailing newline. *)

val event_of_json : string -> timed
(** Raises [Failure] on malformed input or an unknown event shape. *)

(** {2 Trace files}

    A trace file is JSONL: a header line
    [{"trace":"fdlsp","version":1,"meta":{...}}] with free-form string
    metadata, one line per event, and a trailer line
    [{"end":true,"stats":{...}}] (stats optional) — making every
    recorded run a self-contained, re-checkable artifact. *)

type writer

val open_writer : ?meta:(string * string) list -> string -> writer
val writer_to_channel : ?meta:(string * string) list -> out_channel -> writer
val writer_sink : writer -> sink

val close_writer : ?stats:Stats.t -> writer -> unit
(** Writes the trailer; closes the channel iff the writer owns it. *)

type file = {
  meta : (string * string) list;
  events : timed array;
  stats : Stats.t option;  (** from the trailer, when recorded *)
}

val load : string -> file
(** Raises [Failure] with a line number on malformed input, or with the
    system message when the file cannot be opened. *)

val save : ?meta:(string * string) list -> ?stats:Stats.t -> string -> timed array -> unit

(** {2 Per-phase summaries} *)

module Summary : sig
  type phase = {
    label : string;
    scale : int;
    rounds : int;
        (** [Round_start] count for synchronous segments; otherwise the
            ceiling of the last user-level delivery time *)
    sends : int;
    recvs : int;
    drops : int;
    duplicates : int;
    retransmits : int;
    gave_ups : int;  (** {!Give_up} events *)
    crashes : int;
    recoveries : int;
    mis_joins : int;
    colors : int;
    corruptions : int;  (** {!Corrupt_state} events (unscaled) *)
    detects : int;
    recolors : int;
    beacon_losses : int;  (** frame-runtime events (unscaled) *)
    desyncs : int;
    resyncs : int;
    joins : int;
    sleeps : int;
  }

  type t = { phases : phase list; events : int }

  val of_events : timed array -> t
  (** Splits the stream at {!Phase} markers; events before the first
      marker form an implicit ["run"] segment. *)

  val totals : t -> phase
  (** Scale-weighted sums over all segments (label ["total"], scale 1):
      directly comparable to the run's aggregate {!Stats.t}. *)

  val pp : Format.formatter -> t -> unit
  (** One stable [key=value] line per segment plus a totals line. *)

  val to_json : t -> string
end

(** {2 Replay verification} *)

module Replay : sig
  (** Re-validates a completed run from its trace alone:

      - {b decisions}: every {!Color} event must name an in-range arc
        incident to the deciding node, color each arc at most once, and
        be conflict-free against every earlier decision; the rebuilt
        schedule is finally checked with
        {!Fdlsp_color.Schedule.validate} (complete traces) or
        [valid_partial] — a validator independent of whatever structure
        the scheduler used.
      - {b accounting} (when [stats] is given): the scale-weighted
        per-segment sums of rounds, sends, drops, duplicates,
        retransmit and give-up events must equal the run's aggregate
        {!Stats.t} fields exactly.
      - {b crash windows} (when [plan] is given): every {!Crash} /
        {!Recover} event must fall on the plan's crash boundaries, the
        two must alternate per node within a segment, and no {!Send}
        (from) or {!Recv} (to) may involve a node while the plan says it
        is down. *)

  type report = {
    events : int;
    colors : int;  (** decision events *)
    mis_joins : int;
    retransmit_events : int;
    crash_events : int;
    schedule : Fdlsp_color.Schedule.t;  (** rebuilt from the decisions *)
  }

  val check :
    ?plan:Fault.plan ->
    ?stats:Stats.t ->
    ?metrics:Metrics.sink ->
    ?require_complete:bool ->
    Graph.t ->
    timed array ->
    (report, string) result
  (** [require_complete] (default [false]) additionally demands that the
      decisions color every arc of [g].

      [metrics] cross-checks the trace against the registry the run
      recorded through: the scale-weighted trace totals (rounds, sends,
      drops, duplicates, retransmits) must equal
      [Metrics.to_stats ~labels:(Metrics.sink_labels m)] read from the
      sink's registry — any divergence (e.g. a tampered registry) is
      rejected like an accounting mismatch.  A [Metrics.null] sink
      passes vacuously. *)

  type stabilize_report = {
    s_events : int;
    s_corruptions : int;  (** {!Corrupt_state} events *)
    s_detects : int;
    s_recolorings : int;  (** {!Recolor} events *)
    s_recolored_arcs : int;  (** distinct arcs ever recolored (locality) *)
    s_converged : bool;  (** rebuilt final schedule passes [validate] *)
    s_rounds_to_stabilize : int;
        (** inclusive lag from the last corruption to the last
            schedule-changing repair (0 when nothing needed fixing) *)
    s_schedule : Fdlsp_color.Schedule.t;  (** the rebuilt final schedule *)
  }

  val check_stabilize :
    ?plan:Fault.plan ->
    ?metrics:Metrics.sink ->
    ?require_converged:bool ->
    Graph.t ->
    timed array ->
    (stabilize_report, string) result
  (** Verifies a self-stabilization trace (see [Fdlsp_core.Stabilize]):
      rebuilds the schedule from the initial {!Color} events, applies
      every {!Corrupt_state} flip and {!Recolor} in stream order, and
      checks {e locality} (only an arc's owner — its tail — may corrupt,
      detect or recolor it), {e plan conformance} (with [plan], every
      corruption event must match a planned blip's victim and time), and
      {e reconvergence} (the final schedule passes
      {!Fdlsp_color.Schedule.validate}; with [require_converged]
      (default [true]) a non-valid final schedule is an error rather
      than a report).  The stabilization lag is computed from event
      timestamps alone, so traces from either engine verify with the
      same code path.

      [metrics] additionally requires the trace's {!Detect} and
      {!Recolor} counts to equal the [detects] / [recolorings] counters
      read from the sink's registry under the sink's labels. *)

  type frames_report = {
    f_events : int;
    f_beacon_losses : int;
    f_desyncs : int;
    f_resyncs : int;
    f_joins : int;
    f_sleeps : int;
    f_max_lag : float;
        (** worst observed desync-to-resync lag in trace time units *)
    f_synced_end : bool;  (** no node left desynced at end of trace *)
  }

  val check_frames :
    ?resync_threshold:int ->
    ?frame_time:float ->
    ?frame_length:int ->
    ?require_synced:bool ->
    timed array ->
    (frames_report, string) result
  (** Verifies a frame-protocol trace (see [Fdlsp_core.Frame]) without
      the graph or engine: per node, {!Desync} / {!Resync} must
      alternate; with [resync_threshold] every desync must be preceded
      by at least that many {!Beacon_loss} events since the node last
      held sync (the detection rule); every resync must carry a {!Join}
      handshake at the same timestamp; with both [resync_threshold] and
      [frame_time] (one frame's duration in trace time units) no desync
      may stay open longer than [resync_threshold * frame_time] — the
      convergence bound; with [frame_length] no {!Sleep} may exceed the
      frame's slot count.  [require_synced] (default [true]) makes a
      node that ends the trace desynced an error. *)
end
