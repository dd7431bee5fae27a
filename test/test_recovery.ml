(* Chaos suite for crash-safe, overload-safe serving.

   Three layers, matching the durability stack:

   1. Segment codec totality: a WAL cut at EVERY byte offset, and a WAL
      with any single byte flipped, must decode to exactly the intact
      segment prefix — never an exception, never a mangled segment.

   2. Crash-at-every-boundary store harness: for a deterministic churn
      stream, simulate the process dying at every append boundary and
      at every byte of a torn final segment, then machine-check that
      [Wal.Store.recover] lands [Service.equal] to an oracle that
      simply stopped at the last fully-logged batch.  Auto-snapshot
      crash windows (snapshot renamed but WAL not yet truncated, stray
      temp file from a crash before the rename) recover too.

   3. Adversarial admission streams: qcheck drives duplicate floods,
      join/leave thrash, oversized batches, and malformed-then-valid
      interleavings through a small-limit {!Admission} controller in
      front of a live service.  The schedule stays valid, the queue
      never exceeds its cap, the stream drains (liveness), and a
      well-behaved source is never rejected. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

(* ------------------------------------------------------------------ *)
(* Filesystem scratch (stdlib-only: no unix dependency in tests)       *)
(* ------------------------------------------------------------------ *)

let fresh_dir () =
  let f = Filename.temp_file "fdlsp-recovery" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Deterministic churn stream + oracle                                 *)
(* ------------------------------------------------------------------ *)

let base_graph = Gen.cycle 8

(* One fixed concrete stream: 6 batches of 5 events, every batch valid
   at its boundary. *)
let concrete_batches =
  lazy
    (let svc = Service.create (Greedy.color base_graph) in
     Service.synth svc ~seed:11 ~events:30 ~batch:5)

(* The never-crashed reference: a fresh service that applied exactly the
   first [k] batches. *)
let oracle k =
  let svc = Service.create (Greedy.color base_graph) in
  List.iteri
    (fun i evs -> if i < k then ignore (Service.apply svc evs))
    (Lazy.force concrete_batches);
  svc

let segments () =
  List.mapi (fun i evs -> Wal.encode_segment ~seq:i evs) (Lazy.force concrete_batches)

let check_service msg expected got =
  Alcotest.(check bool) msg true (Service.equal expected got)

(* ------------------------------------------------------------------ *)
(* 1. Segment codec                                                    *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let segs = segments () in
  let log = String.concat "" segs in
  let r = Wal.read_string log in
  Alcotest.(check int) "all segments decode" (List.length segs)
    (List.length r.Wal.r_segments);
  Alcotest.(check bool) "tail clean" true (r.Wal.r_tail = Wal.Clean);
  Alcotest.(check int) "valid to the end" (String.length log) r.Wal.r_valid_end;
  List.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "seq %d" i) i s.Wal.seq;
      Alcotest.(check string)
        (Printf.sprintf "segment %d re-encodes identically" i)
        (List.nth segs i)
        (Wal.encode_segment ~seq:s.Wal.seq s.Wal.events))
    r.Wal.r_segments;
  (* empty log *)
  let r = Wal.read_string "" in
  Alcotest.(check bool) "empty log is clean" true
    (r.Wal.r_segments = [] && r.Wal.r_tail = Wal.Clean)

(* Cut the log at every byte offset: the decoder must return exactly the
   full segments before the cut, report Clean exactly at segment
   boundaries and Torn (at the partial segment's start) anywhere else. *)
let test_codec_torn_everywhere () =
  let segs = segments () in
  let log = String.concat "" segs in
  let boundaries =
    (* byte offset at which each segment starts, plus the log's end *)
    let off = ref 0 in
    let starts = List.map (fun s -> let o = !off in off := o + String.length s; o) segs in
    starts @ [ String.length log ]
  in
  for cut = 0 to String.length log do
    let r = Wal.read_string (String.sub log 0 cut) in
    let full_before = List.length (List.filter (fun o -> o < cut) boundaries) - 1 in
    if List.mem cut boundaries then begin
      if r.Wal.r_tail <> Wal.Clean then
        Alcotest.failf "cut %d at boundary: tail not clean" cut;
      if List.length r.Wal.r_segments <> full_before + 1 then
        Alcotest.failf "cut %d at boundary: wrong segment count" cut
    end
    else begin
      let start_of_partial = List.nth boundaries full_before in
      if r.Wal.r_tail <> Wal.Torn start_of_partial then
        Alcotest.failf "cut %d: expected Torn %d" cut start_of_partial;
      if List.length r.Wal.r_segments <> full_before then
        Alcotest.failf "cut %d: wrong segment count" cut;
      if r.Wal.r_valid_end <> start_of_partial then
        Alcotest.failf "cut %d: wrong valid end" cut
    end
  done

(* Flip every single byte of the log: decoding must never raise, must
   keep exactly the segments before the flipped one, and must never
   report a clean tail. *)
let test_codec_bitflip_everywhere () =
  let segs = segments () in
  let log = String.concat "" segs in
  let seg_of_byte i =
    let rec go k off = function
      | [] -> k - 1
      | s :: rest ->
          if i < off + String.length s then k else go (k + 1) (off + String.length s) rest
    in
    go 0 0 segs
  in
  for i = 0 to String.length log - 1 do
    let b = Bytes.of_string log in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    let r = Wal.read_string (Bytes.to_string b) in
    let k = seg_of_byte i in
    if List.length r.Wal.r_segments <> k then
      Alcotest.failf "flip at %d (segment %d): kept %d segments" i k
        (List.length r.Wal.r_segments);
    if r.Wal.r_tail = Wal.Clean then
      Alcotest.failf "flip at %d: damage reported as clean" i;
    List.iteri
      (fun j s ->
        if Wal.encode_segment ~seq:s.Wal.seq s.Wal.events <> List.nth segs j then
          Alcotest.failf "flip at %d: surviving segment %d mangled" i j)
      r.Wal.r_segments
  done

(* ------------------------------------------------------------------ *)
(* 2. Crash-at-every-boundary recovery harness                         *)
(* ------------------------------------------------------------------ *)

(* Write a crash state (snapshot of oracle-0 + a WAL prefix), recover,
   and demand state equality with the oracle for the number of batches
   that were fully logged. *)
let recover_and_check dir ~wal_text ~expect_batches ~expect_tail_torn msg =
  write_file (Filename.concat dir "snapshot") (Service.snapshot (oracle 0));
  write_file (Filename.concat dir "wal") wal_text;
  let st, rv = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  check_service msg (oracle expect_batches) (Wal.Store.service st);
  Alcotest.(check int) (msg ^ ": replayed") expect_batches rv.Wal.Store.rv_replayed;
  (match (expect_tail_torn, rv.Wal.Store.rv_tail) with
  | true, Wal.Torn _ | false, Wal.Clean -> ()
  | _ -> Alcotest.failf "%s: unexpected tail report" msg)

(* The process dies at every append boundary AND at every byte of the
   in-flight segment: recovery always lands on the last fully-logged
   batch, exactly as the never-crashed oracle would have it. *)
let test_crash_every_boundary () =
  let segs = segments () in
  let nb = List.length segs in
  with_dir @@ fun dir ->
  for k = 0 to nb do
    let wal_text = String.concat "" (List.filteri (fun i _ -> i < k) segs) in
    recover_and_check dir ~wal_text ~expect_batches:k ~expect_tail_torn:false
      (Printf.sprintf "clean crash after %d appends" k)
  done

let test_crash_torn_final_segment () =
  let segs = segments () in
  let nb = List.length segs in
  with_dir @@ fun dir ->
  for k = 1 to nb do
    let prefix = String.concat "" (List.filteri (fun i _ -> i < k - 1) segs) in
    let final = List.nth segs (k - 1) in
    (* every strict byte prefix of the in-flight segment *)
    for p = 1 to String.length final - 1 do
      recover_and_check dir
        ~wal_text:(prefix ^ String.sub final 0 p)
        ~expect_batches:(k - 1) ~expect_tail_torn:true
        (Printf.sprintf "torn byte %d of segment %d" p (k - 1))
    done
  done

(* Recovery scrubs the damaged tail: after one recovery of a torn log,
   the file reads back clean and a second recovery agrees. *)
let test_recovery_scrubs_tail () =
  let segs = segments () in
  let log = String.concat "" segs in
  with_dir @@ fun dir ->
  let wal_path = Filename.concat dir "wal" in
  write_file (Filename.concat dir "snapshot") (Service.snapshot (oracle 0));
  write_file wal_path (String.sub log 0 (String.length log - 9));
  let st, rv = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  (match rv.Wal.Store.rv_tail with
  | Wal.Torn _ -> ()
  | _ -> Alcotest.fail "expected a torn tail");
  let r = Wal.read_file wal_path in
  Alcotest.(check bool) "scrubbed file is clean" true (r.Wal.r_tail = Wal.Clean);
  Alcotest.(check int) "scrubbed file keeps full segments"
    (List.length segs - 1)
    (List.length r.Wal.r_segments);
  let st2, rv2 = Wal.Store.recover ~dir () in
  Wal.Store.close st2;
  Alcotest.(check bool) "second recovery reads clean" true
    (rv2.Wal.Store.rv_tail = Wal.Clean);
  check_service "second recovery agrees" (Wal.Store.service st)
    (Wal.Store.service st2)

(* Crash windows around an auto-snapshot: (a) snapshot renamed into
   place but the WAL not yet truncated — recovery must skip the covered
   segments; (b) crash before the rename leaves a stray temp file next
   to a stale snapshot — recovery must ignore it. *)
let test_autosnapshot_crash_windows () =
  let segs = segments () in
  let nb = List.length segs in
  let log = String.concat "" segs in
  with_dir @@ fun dir ->
  (* (a) snapshot covers 4 batches, log still holds all of them *)
  write_file (Filename.concat dir "snapshot") (Service.snapshot (oracle 4));
  write_file (Filename.concat dir "wal") log;
  let st, rv = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  check_service "snapshot+untruncated wal" (oracle nb) (Wal.Store.service st);
  Alcotest.(check int) "covered segments skipped" 4 rv.Wal.Store.rv_covered;
  Alcotest.(check int) "tail segments replayed" (nb - 4) rv.Wal.Store.rv_replayed;
  (* (b) stray temp file from a crash mid-snapshot-write *)
  write_file (Filename.concat dir "snapshot.tmp") "half-written garbage";
  let st, _ = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  check_service "stray snapshot.tmp ignored" (oracle nb) (Wal.Store.service st)

(* A sequence gap (possible only through log damage the per-segment
   checksums cannot see) ends the valid prefix: later segments must not
   be applied out of order. *)
let test_sequence_gap_discards_tail () =
  let segs = segments () in
  with_dir @@ fun dir ->
  write_file (Filename.concat dir "snapshot") (Service.snapshot (oracle 0));
  write_file
    (Filename.concat dir "wal")
    (List.nth segs 0 ^ List.nth segs 2);
  let st, rv = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  check_service "gap stops replay" (oracle 1) (Wal.Store.service st);
  Alcotest.(check int) "gap counted invalid" 1 rv.Wal.Store.rv_invalid;
  let r = Wal.read_file (Filename.concat dir "wal") in
  Alcotest.(check int) "gapped tail scrubbed" 1 (List.length r.Wal.r_segments)

(* A logged batch whose replay raises was also refused by the live run
   (Service.apply raises before mutating): recovery skips it and keeps
   going, ending in the live run's exact state. *)
let test_invalid_segment_skipped () =
  let batches = Lazy.force concrete_batches in
  let b0 = List.nth batches 0 and b1 = List.nth batches 1 in
  let bad =
    (* joining an alive node raises Invalid_argument *)
    Wal.encode_segment ~seq:1 [ Service.Join { node = 0; neighbors = [] } ]
  in
  with_dir @@ fun dir ->
  write_file (Filename.concat dir "snapshot") (Service.snapshot (oracle 0));
  write_file
    (Filename.concat dir "wal")
    (Wal.encode_segment ~seq:0 b0 ^ bad ^ Wal.encode_segment ~seq:1 b1);
  let st, rv = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  check_service "invalid segment skipped" (oracle 2) (Wal.Store.service st);
  Alcotest.(check int) "skip counted" 1 rv.Wal.Store.rv_invalid;
  Alcotest.(check int) "valid segments replayed" 2 rv.Wal.Store.rv_replayed

(* A corrupt segment in the middle of the log (bit flip that survived in
   place) cuts replay there, and recovery scrubs it plus everything
   after. *)
let test_corrupt_middle_segment () =
  let segs = segments () in
  let s1 = List.nth segs 1 in
  let flipped =
    let b = Bytes.of_string s1 in
    let i = String.length s1 - 3 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  with_dir @@ fun dir ->
  write_file (Filename.concat dir "snapshot") (Service.snapshot (oracle 0));
  write_file
    (Filename.concat dir "wal")
    (List.nth segs 0 ^ flipped ^ List.nth segs 2);
  let st, rv = Wal.Store.recover ~dir () in
  Wal.Store.close st;
  check_service "replay cut at corruption" (oracle 1) (Wal.Store.service st);
  (match rv.Wal.Store.rv_tail with
  | Wal.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected a corrupt tail report");
  let r = Wal.read_file (Filename.concat dir "wal") in
  Alcotest.(check bool) "corruption scrubbed" true
    (r.Wal.r_tail = Wal.Clean && List.length r.Wal.r_segments = 1)

(* Live store lifecycle: apply through the store with auto-snapshots on,
   recover, keep applying, recover again — always equal to the oracle,
   and the log stays truncated to the post-snapshot tail. *)
let test_store_lifecycle () =
  let batches = Lazy.force concrete_batches in
  let nb = List.length batches in
  with_dir @@ fun dir ->
  let svc = Service.create (Greedy.color base_graph) in
  let st = Wal.Store.create ~auto_snapshot:2 ~retain:1 ~dir svc in
  List.iter (fun evs -> ignore (Wal.Store.apply st evs)) batches;
  Alcotest.(check bool) "auto-snapshot keeps the log short" true
    (Wal.Store.wal_segments st <= 3);
  Wal.Store.close st;
  let st2, rv = Wal.Store.recover ~auto_snapshot:2 ~dir () in
  check_service "recover after clean close" (oracle nb) (Wal.Store.service st2);
  Alcotest.(check bool) "nothing lost, little replayed" true
    (rv.Wal.Store.rv_replayed <= 2);
  Wal.Store.snapshot_now st2;
  Alcotest.(check int) "snapshot_now truncates (retain 0)" 0
    (Wal.Store.wal_segments st2);
  Wal.Store.close st2;
  let st3, rv3 = Wal.Store.recover ~dir () in
  Wal.Store.close st3;
  check_service "recover from forced snapshot" (oracle nb) (Wal.Store.service st3);
  Alcotest.(check int) "nothing to replay" 0 rv3.Wal.Store.rv_replayed

let test_recover_empty_dir_fails () =
  with_dir @@ fun dir ->
  match Wal.Store.recover ~dir () with
  | _ -> Alcotest.fail "recovering an empty dir must fail"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* 3. Adversarial admission streams                                    *)
(* ------------------------------------------------------------------ *)

let small_limits =
  {
    Admission.rate = 8.;
    burst = 16.;
    queue_cap = 32;
    defer_cap = 16;
    max_batch = 8;
    max_node = 64;
    max_degree_delta = 8;
    degrade_high = 0.5;
    degrade_low = 0.25;
  }

type attack =
  | Valid of Generators.service_hint list
  | Dup  (** re-offer the previous concrete batch verbatim *)
  | Oversize  (** batch above [max_batch] *)
  | Malformed  (** node id above [max_node] *)
  | Thrash of int  (** join/leave thrash on one node *)

let gen_attack =
  let open QCheck2.Gen in
  oneof
    [
      map (fun hs -> Valid hs) (list_size (int_bound 6) Generators.gen_service_hint);
      return Dup;
      return Oversize;
      return Malformed;
      map (fun k -> Thrash (1 + (k mod 6))) nat;
    ]

let gen_attacks = QCheck2.Gen.(list_size (int_bound 24) gen_attack)

(* The full adversarial loop: whatever the mix, the schedule stays
   valid, the queue never exceeds its cap, structural garbage never
   reaches the service, and the stream drains in bounded time. *)
let adversarial_stream attacks =
  let svc = Service.create (Greedy.color base_graph) in
  let adm = Admission.create ~limits:small_limits () in
  let ok = ref true in
  let now = ref 0. in
  let last = ref [] in
  let apply evs =
    (* shed/rejected earlier batches can leave later ones inconsistent:
       a serving loop skips those, it does not die *)
    match Service.apply svc evs with
    | (_ : Service.batch) -> ()
    | exception Invalid_argument _ -> ()
  in
  let drain () =
    let rec go () =
      match Admission.poll adm ~now:!now with
      | Some evs ->
          apply evs;
          ok := !ok && Schedule.valid (Service.schedule svc);
          go ()
      | None -> ()
    in
    go ()
  in
  List.iter
    (fun a ->
      now := !now +. 1.;
      let evs =
        match a with
        | Valid hs ->
            let evs = Generators.realize_batch svc hs in
            last := evs;
            evs
        | Dup -> !last
        | Oversize ->
            List.init
              (small_limits.Admission.max_batch + 1)
              (fun i -> Service.Leave (i mod 8))
        | Malformed ->
            [
              Service.Join
                { node = small_limits.Admission.max_node + 5; neighbors = [] };
            ]
        | Thrash k ->
            List.concat
              (List.init k (fun _ ->
                   [
                     Service.Leave 0; Service.Join { node = 0; neighbors = [ 1 ] };
                   ]))
      in
      ignore (Admission.offer adm ~source:0 ~now:!now evs);
      ok :=
        !ok && Admission.queue_depth adm <= small_limits.Admission.queue_cap;
      drain ())
    attacks;
  (* liveness: a bounded number of quiet ticks drains everything *)
  let guard = ref 0 in
  while Admission.queue_depth adm > 0 && !guard < 1000 do
    incr guard;
    now := !now +. 1.;
    drain ()
  done;
  (* structural rejections never reached the service *)
  let c = Admission.counts adm in
  !ok
  && Admission.queue_depth adm = 0
  && Schedule.valid (Service.schedule svc)
  && Service.nodes svc <= small_limits.Admission.max_node + 1
  && c.Admission.c_admitted + c.Admission.c_deferred + c.Admission.c_rejected
     = List.length attacks

let prop_adversarial =
  Generators.qtest "adversarial stream: valid, bounded, live" ~count:200
    gen_attacks adversarial_stream

(* A compliant source — batches within every structural limit, offered
   at no more than [rate] events per tick — is never deferred, never
   rejected, and sees every batch applied in order.  Structural limits
   are set above anything [realize_batch] can produce; the rate/queue
   limits are the small ones the property is really about. *)
let polite_limits =
  {
    small_limits with
    Admission.max_node = 10_000;
    max_degree_delta = 64;
  }

let well_behaved_stream scripts =
  let svc = Service.create (Greedy.color base_graph) in
  let adm = Admission.create ~limits:polite_limits () in
  let ok = ref true in
  let now = ref 0. in
  let applied = ref 0 and nonempty = ref 0 in
  List.iter
    (fun hints ->
      now := !now +. 1.;
      let evs = Generators.realize_batch svc hints in
      let evs = List.filteri (fun i _ -> i < 8) evs in
      if evs <> [] then incr nonempty;
      (match Admission.offer adm ~source:0 ~now:!now evs with
      | Admission.Admitted -> ()
      | Admission.Deferred | Admission.Rejected _ -> ok := false);
      match Admission.poll adm ~now:!now with
      | Some evs' ->
          if evs' <> evs then ok := false;
          (match Service.apply svc evs' with
          | (_ : Service.batch) -> incr applied
          | exception Invalid_argument _ -> ok := false)
      | None ->
          (* an admitted empty batch releases as no work *)
          if evs <> [] then ok := false)
    scripts;
  !ok
  && Admission.queue_depth adm = 0
  && !applied = !nonempty
  && Schedule.valid (Service.schedule svc)

let prop_well_behaved =
  Generators.qtest "well-behaved source: never rejected, all applied" ~count:150
    (Generators.gen_service_batches ~max_batches:8 ~max_events:8 ())
    well_behaved_stream

(* ------------------------------------------------------------------ *)
(* Admission units                                                     *)
(* ------------------------------------------------------------------ *)

let leave_batch v = [ Service.Leave v ]

(* Regression: a source with deferred batches must not have a later
   batch admitted past them — release order is offer order. *)
let test_defer_preserves_order () =
  let lim =
    { small_limits with Admission.rate = 1.; burst = 2.; queue_cap = 100; defer_cap = 50 }
  in
  let adm = Admission.create ~limits:lim () in
  let offer t evs = ignore (Admission.offer adm ~source:0 ~now:t evs) in
  offer 1. (leave_batch 1);
  (* burst 2 - 1 = 1 token: the next two must defer even though batch 3
     arrives when a token has accrued *)
  offer 1. [ Service.Leave 2; Service.Leave 3 ];
  offer 3. (leave_batch 4);
  let rec drain t acc =
    if t > 20. then List.rev acc
    else
      match Admission.poll adm ~now:t with
      | Some evs -> drain t (evs :: acc)
      | None -> drain (t +. 1.) acc
  in
  let order = drain 3. [] in
  Alcotest.(check int) "all three released" 3 (List.length order);
  Alcotest.(check bool) "released in offer order" true
    (order
    = [ leave_batch 1; [ Service.Leave 2; Service.Leave 3 ]; leave_batch 4 ])

(* Regression: a cheaper later batch of a source must not be released
   past that source's older deferred batch, which it cannot pay for
   yet; [next_release] names the moment the older one pays. *)
let test_release_keeps_source_order () =
  let lim =
    { small_limits with Admission.rate = 1.; burst = 2.; queue_cap = 100; defer_cap = 50 }
  in
  let adm = Admission.create ~limits:lim () in
  let offer evs = ignore (Admission.offer adm ~source:0 ~now:1. evs) in
  offer [ Service.Leave 1; Service.Leave 2 ];
  offer [ Service.Leave 3; Service.Leave 4 ];
  offer (leave_batch 5);
  Alcotest.(check (option (float 0.))) "admitted batch releases now" (Some 1.)
    (Admission.next_release adm);
  ignore (Admission.poll adm ~now:1.);
  Alcotest.(check bool) "one token pays for the older batch only" true
    (Admission.poll adm ~now:2. = None);
  Alcotest.(check (option (float 0.))) "older batch payable at 3" (Some 3.)
    (Admission.next_release adm);
  Alcotest.(check bool) "older batch first" true
    (Admission.poll adm ~now:3. = Some [ Service.Leave 3; Service.Leave 4 ]);
  Alcotest.(check (option (float 0.))) "then the later one at 4" (Some 4.)
    (Admission.next_release adm);
  Alcotest.(check bool) "later batch second" true
    (Admission.poll adm ~now:4. = Some (leave_batch 5));
  Alcotest.(check (option (float 0.))) "nothing left" None (Admission.next_release adm)

let test_structural_rejections () =
  let adm = Admission.create ~limits:small_limits () in
  let expect name want evs =
    match Admission.offer adm ~source:0 ~now:1. evs with
    | Admission.Rejected r when r = want -> ()
    | o ->
        Alcotest.failf "%s: wanted %s, got %s" name
          (Admission.reason_to_string want)
          (match o with
          | Admission.Admitted -> "admitted"
          | Admission.Deferred -> "deferred"
          | Admission.Rejected r -> Admission.reason_to_string r)
  in
  expect "oversized batch" Admission.Batch_too_large
    (List.init 9 (fun i -> Service.Leave i));
  expect "node above max_node" Admission.Node_out_of_range
    [ Service.Join { node = 65; neighbors = [] } ];
  expect "negative node" Admission.Node_out_of_range [ Service.Leave (-1) ];
  expect "neighbor above max_node" Admission.Node_out_of_range
    [ Service.Join { node = 9; neighbors = [ 70 ] } ];
  expect "degree delta blowout" Admission.Degree_delta_exceeded
    [ Service.Join { node = 9; neighbors = List.init 9 (fun i -> 10 + i) } ];
  (* malformed-then-valid: the garbage was dropped, the valid batch flows *)
  (match Admission.offer adm ~source:0 ~now:2. (leave_batch 3) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "valid batch after rejections must admit");
  let c = Admission.counts adm in
  Alcotest.(check int) "five rejections counted" 5 c.Admission.c_rejected;
  Alcotest.(check int) "one admission counted" 1 c.Admission.c_admitted

let test_queue_full_and_per_source () =
  (* defer_cap strictly below queue_cap: that slack is exactly what
     keeps one flooding source from filling the queue for everyone *)
  let lim =
    { small_limits with Admission.queue_cap = 10; defer_cap = 4; rate = 1.; burst = 4. }
  in
  let adm = Admission.create ~limits:lim () in
  (* source 0 floods without anyone polling *)
  let outcomes =
    List.init 8 (fun i ->
        Admission.offer adm ~source:0 ~now:1.
          [ Service.Leave (2 * i); Service.Leave ((2 * i) + 1) ])
  in
  Alcotest.(check bool) "depth bounded by cap" true
    (Admission.queue_depth adm <= 10);
  Alcotest.(check bool) "flood eventually rejected" true
    (List.exists (function Admission.Rejected _ -> true | _ -> false) outcomes);
  (* an under-cap offer from another source still gets through *)
  (match Admission.offer adm ~source:1 ~now:1. (leave_batch 14) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "second source must not be starved by the flooder")

let test_degraded_mode_hysteresis () =
  let lim =
    {
      small_limits with
      Admission.queue_cap = 10;
      defer_cap = 10;
      rate = 100.;
      burst = 100.;
      degrade_high = 0.5;
      degrade_low = 0.2;
    }
  in
  let adm = Admission.create ~limits:lim () in
  let offer t evs = ignore (Admission.offer adm ~source:0 ~now:t evs) in
  offer 1. [ Service.Leave 0; Service.Leave 1; Service.Leave 2 ];
  Alcotest.(check bool) "below high watermark: normal" false (Admission.degraded adm);
  offer 1. [ Service.Leave 3; Service.Leave 4; Service.Leave 5 ];
  Alcotest.(check bool) "above high watermark: degraded" true (Admission.degraded adm);
  (* refinement is shed while degraded; joins/leaves still flow *)
  offer 1. [ Service.Move { node = 6; neighbors = [] }; Service.Leave 6 ];
  let c = Admission.counts adm in
  Alcotest.(check int) "move shed" 1 c.Admission.c_shed;
  Alcotest.(check int) "leave still queued" 7 (Admission.queue_depth adm);
  (* drain: 7 -> 4 is between the watermarks, mode must stick *)
  ignore (Admission.poll adm ~now:2.);
  Alcotest.(check int) "first batch released" 4 (Admission.queue_depth adm);
  Alcotest.(check bool) "between watermarks keeps degraded" true
    (Admission.degraded adm);
  (* 4 -> 1 crosses the low watermark: normal mode resumes *)
  ignore (Admission.poll adm ~now:3.);
  Alcotest.(check bool) "below low watermark: normal again" false
    (Admission.degraded adm);
  ignore (Admission.poll adm ~now:4.);
  Alcotest.(check int) "drained" 0 (Admission.queue_depth adm)

let test_time_discipline () =
  let adm = Admission.create ~limits:small_limits () in
  ignore (Admission.offer adm ~source:0 ~now:5. (leave_batch 0));
  (match Admission.offer adm ~source:0 ~now:4. (leave_batch 1) with
  | _ -> Alcotest.fail "time going backwards must be rejected"
  | exception Invalid_argument _ -> ());
  match Admission.offer adm ~source:0 ~now:Float.nan (leave_batch 1) with
  | _ -> Alcotest.fail "NaN time must be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "fdlsp_recovery"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "torn at every byte" `Quick test_codec_torn_everywhere;
          Alcotest.test_case "bit flip at every byte" `Quick
            test_codec_bitflip_everywhere;
        ] );
      ( "crash",
        [
          Alcotest.test_case "every append boundary" `Quick test_crash_every_boundary;
          Alcotest.test_case "every byte of a torn final segment" `Quick
            test_crash_torn_final_segment;
          Alcotest.test_case "recovery scrubs the tail" `Quick
            test_recovery_scrubs_tail;
          Alcotest.test_case "auto-snapshot crash windows" `Quick
            test_autosnapshot_crash_windows;
          Alcotest.test_case "sequence gap discards tail" `Quick
            test_sequence_gap_discards_tail;
          Alcotest.test_case "invalid segment skipped" `Quick
            test_invalid_segment_skipped;
          Alcotest.test_case "corrupt middle segment" `Quick
            test_corrupt_middle_segment;
          Alcotest.test_case "store lifecycle" `Quick test_store_lifecycle;
          Alcotest.test_case "empty dir fails" `Quick test_recover_empty_dir_fails;
        ] );
      ("adversarial", [ prop_adversarial; prop_well_behaved ]);
      ( "admission",
        [
          Alcotest.test_case "deferral preserves order" `Quick
            test_defer_preserves_order;
          Alcotest.test_case "release keeps each source's order" `Quick
            test_release_keeps_source_order;
          Alcotest.test_case "structural rejections" `Quick
            test_structural_rejections;
          Alcotest.test_case "queue cap and per-source isolation" `Quick
            test_queue_full_and_per_source;
          Alcotest.test_case "degraded-mode hysteresis" `Quick
            test_degraded_mode_hysteresis;
          Alcotest.test_case "time discipline" `Quick test_time_discipline;
        ] );
    ]
