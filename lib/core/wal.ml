module Metrics = Fdlsp_sim.Metrics
module Span = Fdlsp_sim.Span
module Name = Metrics.Name

let src = Logs.Src.create "fdlsp.wal" ~doc:"write-ahead event log"

module Log = (val Logs.src_log src : Logs.LOG)

type segment = { seq : int; events : Service.event list }
type tail = Clean | Torn of int | Corrupt of int

type read = { r_segments : segment list; r_valid_end : int; r_tail : tail }

(* ------------------------------------------------------------------ *)
(* Segment codec                                                       *)
(* ------------------------------------------------------------------ *)

let payload_of_events events =
  let b = Buffer.create 128 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Service.event_to_json ev);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

let digest_hex ~seq payload =
  Digest.to_hex (Digest.string (string_of_int seq ^ "\n" ^ payload))

let encode_segment ~seq events =
  if seq < 0 then invalid_arg "Wal.encode_segment: negative sequence number";
  let payload = payload_of_events events in
  Printf.sprintf "walseg %d %d %s\n%s\n" seq (String.length payload)
    (digest_hex ~seq payload)
    payload

(* The reader is total: any violation — header that does not parse, a
   length pointing past the end of the file, a checksum mismatch, a
   payload line that is not a Service event — ends the valid prefix at
   the offending segment's first byte.  A violation that can only come
   from an interrupted append (file ends before the announced bytes do)
   is reported [Torn]; everything else is [Corrupt]. *)
let read_string text =
  let len = String.length text in
  let segments = ref [] in
  let rec loop pos =
    if pos >= len then { r_segments = List.rev !segments; r_valid_end = pos; r_tail = Clean }
    else
      let stop tail = { r_segments = List.rev !segments; r_valid_end = pos; r_tail = tail } in
      match String.index_from_opt text pos '\n' with
      | None -> stop (Torn pos) (* header line never finished *)
      | Some nl -> (
          let header = String.sub text pos (nl - pos) in
          match String.split_on_char ' ' header with
          | [ "walseg"; seq_s; len_s; hex ] -> (
              match (int_of_string_opt seq_s, int_of_string_opt len_s) with
              | Some seq, Some plen when seq >= 0 && plen >= 0 -> (
                  let body_start = nl + 1 in
                  (* payload + its trailing '\n' *)
                  if body_start + plen + 1 > len then stop (Torn pos)
                  else if text.[body_start + plen] <> '\n' then stop (Corrupt pos)
                  else
                    let payload = String.sub text body_start plen in
                    if not (String.equal (digest_hex ~seq payload) hex) then
                      stop (Corrupt pos)
                    else
                      let events =
                        let lines =
                          String.split_on_char '\n' payload
                          |> List.filter (fun l -> l <> "")
                        in
                        let rec parse acc = function
                          | [] -> Some (List.rev acc)
                          | l :: rest -> (
                              match Service.line_of_string l with
                              | `Event e -> parse (e :: acc) rest
                              | `Flush | (exception Failure _) -> None)
                        in
                        parse [] lines
                      in
                      match events with
                      | None -> stop (Corrupt pos)
                      | Some events ->
                          segments := { seq; events } :: !segments;
                          loop (body_start + plen + 1))
              | _ -> stop (Corrupt pos))
          | _ -> stop (Corrupt pos))
  in
  loop 0

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> read_string text
  | exception Sys_error _ -> { r_segments = []; r_valid_end = 0; r_tail = Clean }

(* ------------------------------------------------------------------ *)
(* Durable store                                                       *)
(* ------------------------------------------------------------------ *)

module Store = struct
  type recovery = {
    rv_replayed : int;
    rv_covered : int;
    rv_invalid : int;
    rv_tail : tail;
  }

  type t = {
    s_dir : string;
    auto_snapshot : int;
    retain : int;
    metrics : Metrics.sink;
    spans : Span.sink;
    svc : Service.t;
    mutable oc : out_channel;
    mutable since_snapshot : int;
    mutable segments : int;  (* segments currently on disk *)
    mutable closed : bool;
  }

  let wal_path dir = Filename.concat dir "wal"
  let snap_path dir = Filename.concat dir "snapshot"

  let write_atomic path text =
    let tmp = path ^ ".tmp" in
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Sys.rename tmp path

  let open_append path =
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path

  let ensure_dir dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": not a directory"))

  let check_knobs ~auto_snapshot ~retain =
    if auto_snapshot < 0 then invalid_arg "Wal.Store: negative auto_snapshot";
    if retain < 0 then invalid_arg "Wal.Store: negative retain"

  (* Rewrite the log keeping only the newest [keep_from]-and-later
     segments (plus [retain] older ones), atomically: new file under a
     temp name, rename over, reopen for append.  A crash between the
     snapshot rename and this rename only leaves snapshot-covered
     segments in the log, which recovery skips. *)
  let truncate_wal t ~covered_below =
    close_out t.oc;
    let path = wal_path t.s_dir in
    let { r_segments; _ } = read_file path in
    let live, covered =
      List.partition (fun s -> s.seq >= covered_below) r_segments
    in
    let retained =
      let n = List.length covered in
      if n <= t.retain then covered
      else
        (* drop the oldest, keep the newest [retain] *)
        List.filteri (fun i _ -> i >= n - t.retain) covered
    in
    let keep = retained @ live in
    let b = Buffer.create 1024 in
    List.iter (fun s -> Buffer.add_string b (encode_segment ~seq:s.seq s.events)) keep;
    write_atomic path (Buffer.contents b);
    t.segments <- List.length keep;
    t.oc <- open_append path

  let service t = t.svc
  let wal_segments t = t.segments

  let write_snapshot t =
    Span.span t.spans "wal.snapshot" (fun () ->
        write_atomic (snap_path t.s_dir) (Service.snapshot t.svc));
    if Metrics.enabled t.metrics then Metrics.inc t.metrics Name.wal_snapshots

  let snapshot_now t =
    write_snapshot t;
    truncate_wal t ~covered_below:(Service.totals t.svc).Service.batches;
    t.since_snapshot <- 0

  let create ?(metrics = Metrics.null) ?(spans = Span.null) ?(auto_snapshot = 0)
      ?(retain = 0) ~dir svc =
    check_knobs ~auto_snapshot ~retain;
    ensure_dir dir;
    let t =
      {
        s_dir = dir;
        auto_snapshot;
        retain;
        metrics;
        spans;
        svc;
        oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 (wal_path dir);
        since_snapshot = 0;
        segments = 0;
        closed = false;
      }
    in
    write_snapshot t;
    t

  let apply t events =
    if t.closed then invalid_arg "Wal.Store.apply: store is closed";
    let seq = (Service.totals t.svc).Service.batches in
    let seg = encode_segment ~seq events in
    Span.span t.spans "wal.append" (fun () -> output_string t.oc seg);
    Span.span t.spans "wal.fsync" (fun () -> flush t.oc);
    t.segments <- t.segments + 1;
    if Metrics.enabled t.metrics then begin
      Metrics.inc t.metrics Name.wal_appends;
      Metrics.inc ~by:(String.length seg) t.metrics Name.wal_bytes
    end;
    (* the segment reaches the OS before any repair state mutates: a
       process crash from here on replays it (no fsync, so a power loss
       may still lose it) *)
    let b = Service.apply t.svc events in
    t.since_snapshot <- t.since_snapshot + 1;
    if t.auto_snapshot > 0 && t.since_snapshot >= t.auto_snapshot then
      snapshot_now t;
    b

  let recover ?(metrics = Metrics.null) ?(spans = Span.null) ?(auto_snapshot = 0)
      ?(retain = 0) ~dir () =
    check_knobs ~auto_snapshot ~retain;
    Span.span spans "wal.recover" @@ fun () ->
    let snap =
      match In_channel.with_open_bin (snap_path dir) In_channel.input_all with
      | text -> text
      | exception Sys_error m ->
          failwith (Printf.sprintf "Wal.Store.recover: no snapshot in %s (%s)" dir m)
    in
    let svc = Service.restore ~metrics ~spans snap in
    let path = wal_path dir in
    let { r_segments; r_tail; _ } = read_file path in
    let replayed = ref 0 and covered = ref 0 and invalid = ref 0 in
    let keep = ref [] in
    let broken = ref false in
    List.iter
      (fun s ->
        let batches = (Service.totals svc).Service.batches in
        if !broken then incr invalid
        else if s.seq < batches then begin
          (* already inside the snapshot *)
          incr covered;
          keep := s :: !keep
        end
        else if s.seq > batches then begin
          (* a sequence gap can only come from log damage the checksums
             missed; discard everything from here on as tail *)
          broken := true;
          incr invalid
        end
        else
          match Service.apply svc s.events with
          | (_ : Service.batch) ->
              incr replayed;
              keep := s :: !keep
          | exception Invalid_argument _ ->
              (* the live run raised on this exact batch and applied
                 nothing; skipping reproduces its state *)
              incr invalid;
              keep := s :: !keep)
      r_segments;
    (* scrub any damaged or discarded tail off the file so future
       appends extend a fully valid log *)
    (match (r_tail, !broken) with
    | Clean, false -> ()
    | _ ->
        let b = Buffer.create 1024 in
        List.iter
          (fun s -> Buffer.add_string b (encode_segment ~seq:s.seq s.events))
          (List.rev !keep);
        (try write_atomic path (Buffer.contents b) with Sys_error _ -> ()));
    if Metrics.enabled metrics then begin
      Metrics.inc ~by:!replayed metrics Name.wal_replayed;
      Metrics.inc ~by:(!covered + !invalid) metrics Name.wal_skipped
    end;
    Log.info (fun m ->
        m "recovered %s: %d replayed, %d covered, %d skipped, tail %s" dir !replayed
          !covered !invalid
          (match r_tail with
          | Clean -> "clean"
          | Torn o -> Printf.sprintf "torn@%d" o
          | Corrupt o -> Printf.sprintf "corrupt@%d" o));
    let t =
      {
        s_dir = dir;
        auto_snapshot;
        retain;
        metrics;
        spans;
        svc;
        oc = open_append path;
        since_snapshot = 0;
        segments = List.length !keep;
        closed = false;
      }
    in
    ( t,
      {
        rv_replayed = !replayed;
        rv_covered = !covered;
        rv_invalid = !invalid;
        rv_tail = r_tail;
      } )

  let close t =
    if not t.closed then begin
      t.closed <- true;
      close_out t.oc
    end
end
