(** Causal span profiler.

    Hierarchical begin/end spans with parent ids, monotone timestamps,
    and per-span allocation/GC deltas (the same accounting as
    {!Metrics.timed}), recorded into a bounded ring buffer.  A cheap
    {!type:sink} handle is threaded as [?spans] through the simulation
    engines, the algorithm phases, and the serve path; with {!null}
    every instrumentation point costs one pattern match and nothing
    else (the bench pins this at <= 2% on the conflict-kernel hot
    path).

    The ring records raw {!type:entry} values in emission order, so a
    crash dump shows spans that were still open, and {!check_nesting}
    can machine-verify the LIFO discipline.  Exports:
    {!to_chrome} (Chrome [trace_event] JSON, loadable by
    chrome://tracing, Perfetto, speedscope) and {!to_folded}
    (folded-stack text for flamegraph tooling). *)

type entry =
  | Begin of { id : int; parent : int; name : string; t : float }
      (** Span opened. [parent] is the id of the enclosing open span,
          or [-1] at the root. Ids are unique per recorder. *)
  | End_ of { id : int; name : string; t : float; alloc_words : int; majors : int }
      (** Span closed. [alloc_words] is the words allocated during the
          span (minor + unpromoted major, as in {!Metrics.timed});
          [majors] the number of major collections. *)
  | Mark of { t : float; name : string; args : (string * string) list }
      (** Instantaneous event (e.g. an admission verdict). *)

type sink
(** Either the free null sink or a handle on a recorder ring. *)

val null : sink
(** Records nothing; {!span} [null name f] is exactly [f ()]. *)

val recorder : ?capacity:int -> ?clock:(unit -> float) -> unit -> sink
(** A recording sink over a bounded ring of [capacity] entries
    (default 65536; an entry is ~5 words plus its name, so the default
    ring is a few MB at worst). When full, the oldest entries are
    overwritten — always-on flight-recorder semantics. [clock] defaults
    to {!Clock.now} (process-wide monotone); timestamps are additionally
    clamped monotone per recorder.
    @raise Invalid_argument if [capacity < 2]. *)

val enabled : sink -> bool
(** [false] only for {!null} — lets callers skip building span names. *)

val span : sink -> string -> (unit -> 'a) -> 'a
(** [span m name f] runs [f] inside a span. The span is closed (with
    its GC deltas) even if [f] raises, via [Fun.protect]. *)

val mark : ?args:(string * string) list -> sink -> string -> unit
(** Record an instantaneous event at the current time. *)

val seen : sink -> int
(** Total entries ever recorded, including overwritten ones. *)

val overwritten : sink -> int
(** Entries lost to ring wraparound ([seen - length entries]). *)

val depth : sink -> int
(** Number of currently open spans. *)

val open_spans : sink -> string list
(** Names of currently open spans, innermost first. *)

val entries : sink -> entry array
(** Ring contents, oldest first. [[||]] for {!null}. *)

val check_nesting : ?require_closed:bool -> entry array -> (unit, string) result
(** Machine-check the causal discipline of an entry stream: every
    [End_] must close the innermost open [Begin] (matching id and
    name), ids must be fresh, timestamps non-decreasing, children
    within their parents. With [~require_closed:true] (default false)
    spans left open at the end of the stream are also an error —
    use it for complete profiles; crash dumps legitimately end with
    open spans. *)

val to_chrome : ?pid:int -> entry array -> string
(** Chrome [trace_event] JSON (object form, [{"traceEvents":[...]}]).
    Timestamps are microseconds relative to the first entry. *)

val to_folded : entry array -> string
(** Folded-stack text: one ["a;b;c <usec>" ] line per distinct stack,
    value = self time in integer microseconds. Directly consumable by
    [flamegraph.pl], inferno, or speedscope. Entries whose [Begin] was
    lost to wraparound are skipped; still-open spans contribute
    nothing. *)

val entry_time : entry -> float

val entry_to_json : entry -> string
(** One-line JSON encoding, used by flight-recorder dumps. *)

val entry_of_json : string -> entry
(** Inverse of {!entry_to_json}.
    @raise Failure on malformed input. *)
