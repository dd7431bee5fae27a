(** The long-lived serve loop: a {!Service} (optionally behind a
    {!Wal.Store}) fed one input batch at a time, with admission
    control, streaming health samples, SLO evaluation and an always-on
    {!Fdlsp_sim.Flight} recorder.

    The loop runs on a synthetic clock, one tick per offered batch, so
    admission's [rate] reads as events per batch interval and every run
    is deterministic; at {!finish} it jumps to each deferred release.  The server owns its metrics registry and flight
    recorder and threads them through everything it builds; callers
    read them through {!metrics} and {!recorder}.

    Flight dumps go to [config.flight], or [WAL/flight.fdr] when only a
    WAL directory is given, and are written at startup (after a
    ["wal-recovery-scrub"] dump when recovery found a damaged tail or
    skipped segments), every 64 applied batches (["periodic"]), on an
    apply failure (["apply-failure"]), on a [check] divergence
    (["check-divergence"]) and at {!finish} (["shutdown"]).  A dump
    that cannot be written is logged and otherwise ignored. *)

exception Error of string
(** Every fatal condition: unreadable snapshot or WAL directory, a batch
    {!Service.apply} rejects without admission control, a batch
    admission control refuses to classify, a schedule that fails
    [check]. *)

(** Where the service comes from. *)
type source =
  | Graph of Fdlsp_graph.Graph.t  (** fresh: DFS-schedule this graph *)
  | Restore of string  (** the snapshot file at this path *)
  | Recover  (** recover [config.wal]: snapshot plus WAL tail replay *)

(** Burnable service-level objectives, each evaluated on every health
    sample against a threshold. *)
type slo =
  | P99_repair_ms  (** window p99 repair latency ceiling *)
  | Events_per_sec  (** window throughput floor *)
  | Queue_depth  (** admission queue ceiling *)

val slo_names : (string * slo) list
(** The key of each SLO as written on the command line and in alerts. *)

val slo_of_string : string -> slo option
val slo_name : slo -> string

type config = {
  source : source;
  wal : string option;  (** serve durably out of this directory *)
  auto_snapshot : int;  (** see {!Wal.Store.create}; ignored without [wal] *)
  flight : string option;  (** dump path; defaults to [WAL/flight.fdr] *)
  max_batch : int option;
  rate : float option;
      (** admission control is on when either of these is set: at most
          [max_batch] events per batch (default
          {!Admission.default_limits}), a token bucket of [rate] events
          per tick (default unlimited) holding
          [max max_batch (2 * rate)] tokens, so one legal batch can
          always pay and a compliant source never defers *)
  health_every : int option;
      (** one health sample every that many applied batches, plus a
          final one at {!finish} *)
  slos : (slo * float) list;
  check : bool;  (** re-validate the schedule after every batch *)
}

type t

val create : ?on_health:(string -> unit) -> config -> t
(** Build the service as [config.source] says, open the WAL store, and
    write the startup dump.  [on_health] receives every health sample
    and SLO alert, one JSON object per call.  Raises {!Error} (and
    [Invalid_argument] on [source = Recover] without [wal]). *)

val service : t -> Service.t
val metrics : t -> Fdlsp_sim.Metrics.t
val recorder : t -> Fdlsp_sim.Flight.t

val offer : t -> Service.event list -> unit
(** Tick the clock and feed one input batch: straight to the service,
    or through admission control, then apply whatever admission
    releases.  Under admission control a batch the service rejects is
    skipped with a warning (earlier batches may have been shed, so it
    is load-shedding fallout, not a caller bug); without it the batch
    raises {!Error}.  Either way the failure is dumped first. *)

val dump : t -> string -> unit
(** [dump t reason] writes a flight dump now (no-op without a dump
    path) — for callers' signal handlers. *)

type summary = {
  nodes : int;
  live : int;
  links : int;
  slots : int;
  valid : bool;
  totals : Service.totals;
  events_per_sec : float;  (** events over summed repair time; 0 without repairs *)
  repair_ms_p50 : float;  (** NaN without repairs *)
  repair_ms_p99 : float;
  recovery : Wal.Store.recovery option;
  admission : Admission.counts option;
  queries : (int * int * int option) list;  (** [(u, v, slot of u -> v)] *)
  slo_burned : bool;  (** some SLO burned on some sample *)
  offered : int;  (** events handed to {!offer} *)
  applied : int;  (** events in the batches the service applied *)
  skipped : int;  (** events in the batches the service rejected *)
  rejected : int;  (** events in the batches admission control rejected *)
}
(** Every offered event is accounted for exactly once:
    [offered = applied + skipped + rejected + shed], with [shed] the
    admission counts' [c_shed] (0 without admission control).  The
    counts cover this run only; [totals] also carries what a restored
    or recovered service had applied before. *)

val finish : ?queries:(int * int) list -> t -> summary
(** Drain deferred batches (jumping the clock to each
    {!Admission.next_release} until the admission queue is empty), emit
    the final health sample, write the shutdown dump, close the WAL
    store, and summarize — answering [queries] on the final schedule.
    The service stays readable through {!service}. *)
