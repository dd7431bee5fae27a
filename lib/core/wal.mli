(** Write-ahead event log + durable store around {!Service}.

    {!Service.snapshot} made the service durable {e when someone
    remembered to snapshot}; this module closes the gap between
    snapshots.  Every batch is appended to an on-disk log as a
    checksummed, length-prefixed segment {e before} repair runs, so a
    process crash at any instant — including mid-[write(2)] — loses at
    most the batch whose segment was never fully flushed, and never
    corrupts recovery (segments are flushed to the OS, not fsynced: a
    power loss is outside this guarantee):

    {v
    segment  :=  "walseg <seq> <len> <md5hex>\n" payload "\n"
    payload  :=  one Service event_to_json line per event ("\n"-terminated)
    v}

    [seq] is the batch sequence number (the value of
    [(Service.totals svc).batches] when the segment was written), [len]
    the byte length of [payload], and [md5hex] the MD5 of
    ["<seq>\n" ^ payload] — the same [Digest] discipline as snapshots,
    with the sequence number bound into the checksum so a header edit
    cannot re-parent a payload.

    Reading is {b total}: a torn final write (any byte prefix of a
    segment), a truncated file, a bit flip, or garbage after the valid
    prefix is detected, reported, and discarded together with
    everything after it — never an exception, never a partially applied
    batch.

    {!Store} ties the log to a service directory
    ([dir/snapshot] + [dir/wal]): [apply] = append-then-repair,
    [recover] = restore the checksummed snapshot and replay the WAL
    tail, with periodic auto-snapshots that truncate the log under a
    retention knob.  Snapshot writes are atomic (temp file + rename),
    so there is no reachable crash point with neither a valid snapshot
    nor a replayable log. *)

(** {1 Segment codec} *)

type segment = { seq : int; events : Service.event list }

(** Why the valid prefix of a log ended. *)
type tail =
  | Clean  (** the file ends exactly at a segment boundary *)
  | Torn of int  (** a trailing partial segment started at this byte offset *)
  | Corrupt of int
      (** checksum/format violation at this byte offset; everything from
          there on is discarded *)

type read = {
  r_segments : segment list;  (** the valid prefix, in file order *)
  r_valid_end : int;  (** byte offset where the valid prefix ends *)
  r_tail : tail;
}

val encode_segment : seq:int -> Service.event list -> string
(** One full segment, header + payload + trailing newline.  Raises
    [Invalid_argument] when [seq < 0]. *)

val read_string : string -> read
(** Decode the longest valid segment prefix.  Never raises on damaged
    input. *)

val read_file : string -> read
(** {!read_string} over the file's bytes; a missing file reads as an
    empty clean log. *)

(** {1 Durable store} *)

module Store : sig
  type t

  type recovery = {
    rv_replayed : int;  (** segments applied on top of the snapshot *)
    rv_covered : int;  (** segments skipped as already in the snapshot *)
    rv_invalid : int;  (** segments skipped because replay raised (the
                            live run saw the same [Invalid_argument] and
                            applied nothing) *)
    rv_tail : tail;  (** how the log's valid prefix ended *)
  }

  val create :
    ?metrics:Fdlsp_sim.Metrics.sink ->
    ?spans:Fdlsp_sim.Span.sink ->
    ?auto_snapshot:int ->
    ?retain:int ->
    dir:string ->
    Service.t ->
    t
  (** [create ~dir svc] starts a fresh durable store: creates [dir] if
      missing, writes an initial snapshot of [svc] atomically, and
      truncates the log.  [auto_snapshot] (default [0] = off) snapshots
      and truncates the WAL every that many applied batches; [retain]
      (default [0]) keeps that many newest snapshot-covered segments in
      the log for forensics.  The service is owned by the store from
      here on.  Raises [Invalid_argument] on negative knobs, [Sys_error]
      on filesystem failure.

      [spans] records ["wal.append"] / ["wal.fsync"] spans per applied
      batch (["wal.fsync"] times the [flush] to the OS; nothing calls
      [fsync], so a segment survives a process crash, not a power
      loss) and a ["wal.snapshot"] span per snapshot write (give the
      store the same sink as its service so the WAL spans and the
      repair spans interleave in one causal stream). *)

  val recover :
    ?metrics:Fdlsp_sim.Metrics.sink ->
    ?spans:Fdlsp_sim.Span.sink ->
    ?auto_snapshot:int ->
    ?retain:int ->
    dir:string ->
    unit ->
    t * recovery
  (** Load the latest checksummed snapshot, replay the WAL tail (seq
      order, skipping snapshot-covered segments and segments whose
      replay raises — exactly the batches the live run also refused),
      truncate any damaged tail off the log, and reopen for appending.
      The result is {!Service.equal} to the crashed process's last
      applied state.  Raises [Failure] when [dir] has no readable
      snapshot.  [spans] wraps the whole recovery in a ["wal.recover"]
      span (the restored service's repair spans nest inside it) and is
      kept by the store as in {!create}. *)

  val service : t -> Service.t

  val apply : t -> Service.event list -> Service.batch
  (** Append the batch's segment (flushed) {e before} running
      {!Service.apply}.  A malformed batch still raises
      [Invalid_argument] after logging; recovery skips it the same way
      the live run did.  Triggers an auto-snapshot when due. *)

  val snapshot_now : t -> unit
  (** Force a snapshot + WAL truncation outside the periodic cadence. *)

  val wal_segments : t -> int
  (** Segments currently in the on-disk log (retained + live). *)

  val close : t -> unit
  (** Flush and close the log handle.  The store must not be used
      afterwards. *)
end
