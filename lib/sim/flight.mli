(** Always-on flight recorder.

    Bundles a bounded {!Span} ring and a bounded queue of recent
    health-sample lines; {!dump} writes both atomically (tmp + rename, the same discipline as snapshots)
    to a sectioned-JSONL crash-dump file that {!load} and
    [fdlsp doctor] can reconstruct without any other state.

    The serve path keeps one of these alive at all times and dumps on
    [Service.apply] failure, WAL recovery scrub, replay-check
    divergence, or a fatal signal — plus periodically, so even
    [SIGKILL] (which cannot be caught) leaves a recent dump behind. *)

type t

val create : ?span_capacity:int -> ?health_capacity:int -> unit -> t
(** Fresh recorder. Defaults: 8192 span entries and 256 health lines —
    about a megabyte at worst, covering several dozen batches of serve
    activity (see DESIGN.md §16 for the sizing argument). *)

val spans : t -> Span.sink
(** The span sink to thread through engines and the serve path. *)

val note_health : t -> string -> unit
(** Append one (JSONL) health-sample line to the bounded queue. *)

val dump : t -> reason:string -> string -> unit
(** [dump t ~reason path] atomically writes the current rings to
    [path]. Sections: a header line (reason, counts, open spans),
    ["spans"] ({!Span.entry_to_json} lines), ["health"] (raw lines),
    and an end marker proving the dump is complete. *)

type dump = {
  d_reason : string;
  d_time : float;  (** unix time at capture *)
  d_spans : Span.entry array;
  d_spans_overwritten : int;
  d_health : string list;
  d_open : string list;  (** spans open at capture, innermost first *)
  d_complete : bool;  (** end marker present *)
}

val load : string -> dump
(** Parse a dump file back.
    Dumps from older writers may carry a ["trace"] section; it is
    skipped.
    @raise Failure on files that are not flight-recorder dumps or are
    damaged beyond the trailing-truncation the format tolerates. *)

val pp_story : Format.formatter -> dump -> unit
(** Human-readable reconstruction of the final window: reason, span
    window span/counts, nesting verdict, the last few spans with
    relative timestamps, and the last health samples. *)
