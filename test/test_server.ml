(* The serve loop as a library: health windows reconcile with the final
   counters and admission verdicts, a burned SLO is reported exactly
   once per burning sample, the flight recorder dumps at every trigger,
   the end-of-stream drain empties the admission queue, and a batch the
   service rejects never reaches the repair histogram. *)

open Fdlsp_graph
open Fdlsp_core
module Metrics = Fdlsp_sim.Metrics
module Span = Fdlsp_sim.Span
module Flight = Fdlsp_sim.Flight
module Json = Fdlsp_sim.Json

let graph () = fst (Gen.udg (Random.State.make [| 7 |]) ~n:14 ~side:4. ~radius:1.2)

let config =
  {
    Server.source = Server.Graph (graph ());
    wal = None;
    auto_snapshot = 0;
    flight = None;
    max_batch = None;
    rate = None;
    health_every = None;
    slos = [];
    check = true;
  }

(* Runs [cfg] over [batches] (generated against the fresh service by
   [stream]); returns the server, its summary and every health line. *)
let serve ?(queries = []) cfg stream =
  let lines = ref [] in
  let srv = Server.create ~on_health:(fun l -> lines := l :: !lines) cfg in
  List.iter (Server.offer srv) (stream (Server.service srv));
  let summary = Server.finish ~queries srv in
  (srv, summary, List.rev_map Json.parse !lines)

let synth ?(batch = 4) events svc = Service.synth svc ~seed:7 ~events ~batch

let int_field k j =
  match Json.member k j with
  | Some (Json.Num f) -> int_of_float f
  | _ -> Alcotest.failf "field %s missing" k

let samples = List.filter (fun j -> Json.member "health" j <> None)
let alerts = List.filter (fun j -> Json.member "alert" j <> None)
let sum k js = List.fold_left (fun acc j -> acc + int_field k j) 0 js

let with_temp f =
  let path = Filename.temp_file "fdlsp-server" ".fdr" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let fresh_dir () =
  let f = Filename.temp_file "fdlsp-server" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Health windows                                                      *)
(* ------------------------------------------------------------------ *)

(* Deferrals (rate 3 against batches of 4), an oversized batch admission
   rejects, a batch the service rejects, and WAL appends: every summed
   health field equals its final counter. *)
let test_health_reconciles () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let stream svc =
    let batches = synth 60 svc in
    let oversized = List.init 9 (fun i -> Service.Leave i) in
    (List.hd batches :: oversized :: [ Service.Leave 10_000 ] :: List.tl batches)
  in
  let srv, s, lines =
    serve
      { config with wal = Some dir; max_batch = Some 5; rate = Some 3.; health_every = Some 3 }
      stream
  in
  let hs = samples lines in
  let reg = Server.metrics srv in
  let c = Option.get s.Server.admission in
  let t = s.Server.totals in
  Alcotest.(check bool) "several samples" true (List.length hs > 2);
  Alcotest.(check int) "events" t.Service.events (sum "events" hs);
  Alcotest.(check int) "repairs" t.Service.batches (sum "repairs" hs);
  Alcotest.(check int) "admitted" c.Admission.c_admitted (sum "admitted" hs);
  Alcotest.(check int) "deferred" c.Admission.c_deferred (sum "deferred" hs);
  Alcotest.(check int) "rejected" c.Admission.c_rejected (sum "rejected" hs);
  Alcotest.(check int) "shed" c.Admission.c_shed (sum "shed" hs);
  Alcotest.(check int) "wal bytes"
    (Metrics.counter_value reg Metrics.Name.wal_bytes)
    (sum "wal_bytes" hs);
  Alcotest.(check bool) "wal bytes counted" true (sum "wal_bytes" hs > 0);
  Alcotest.(check int) "oversized batch rejected" 1 c.Admission.c_rejected;
  Alcotest.(check int) "last sample sees every batch" t.Service.batches
    (int_field "batches" (List.nth hs (List.length hs - 1)));
  Alcotest.(check int) "no alerts without SLOs" 0 (List.length (alerts lines))

(* Satellite of the same stream: the skipped batch is in no counter. *)
let test_rejected_batch_is_not_a_repair () =
  let stream svc = [ Service.Leave 10_000 ] :: synth 20 svc in
  let srv, s, _ = serve { config with max_batch = Some 8 } stream in
  let reg = Server.metrics srv in
  let hist = Metrics.histogram reg (Metrics.Name.service_repair ^ "_seconds") in
  let applied = Metrics.counter_value reg Metrics.Name.service_batches in
  Alcotest.(check int) "batches" s.Server.totals.Service.batches applied;
  Alcotest.(check int) "repair histogram counts applied batches only" applied
    (Metrics.Hist.count (Option.get hist));
  (* a rejected batch alone leaves the histogram empty *)
  let srv, s, _ = serve { config with max_batch = Some 8 } (fun _ -> [ [ Service.Leave 10_000 ] ]) in
  Alcotest.(check int) "nothing applied" 0 s.Server.totals.Service.batches;
  Alcotest.(check bool) "no repair observed" true
    (match Metrics.histogram (Server.metrics srv) (Metrics.Name.service_repair ^ "_seconds") with
    | None -> true
    | Some h -> Metrics.Hist.count h = 0);
  Alcotest.(check bool) "no repair quantile" true (Float.is_nan s.Server.repair_ms_p50)

(* ------------------------------------------------------------------ *)
(* SLOs                                                                *)
(* ------------------------------------------------------------------ *)

let test_slo_burn () =
  (* one sample (the final flush), one unreachable throughput floor and
     one ceiling nothing comes near *)
  let srv, s, lines =
    serve
      {
        config with
        health_every = Some 1_000;
        slos = [ (Server.Events_per_sec, Float.infinity); (Server.Queue_depth, 1e9) ];
      }
      (synth 20)
  in
  Alcotest.(check int) "one sample" 1 (List.length (samples lines));
  (match alerts lines with
  | [ a ] ->
      Alcotest.(check bool) "names the burned SLO" true
        (Json.member "slo" a = Some (Json.Str "events_per_sec"));
      Alcotest.(check int) "names its sample" 1 (int_field "sample" a)
  | l -> Alcotest.failf "expected one alert, got %d" (List.length l));
  let marks =
    Array.to_list (Span.entries (Flight.spans (Server.recorder srv)))
    |> List.filter (function Span.Mark m -> m.name = "slo.burned" | _ -> false)
  in
  Alcotest.(check int) "one slo.burned mark" 1 (List.length marks);
  Alcotest.(check bool) "summary flags the burn" true s.Server.slo_burned;
  let _, s, lines = serve { config with health_every = Some 2; slos = [ (Server.Queue_depth, 0.) ] } (synth 20) in
  Alcotest.(check int) "no alert within bounds" 0 (List.length (alerts lines));
  Alcotest.(check bool) "summary unburned" false s.Server.slo_burned;
  Alcotest.(check bool) "keys round-trip" true
    (List.for_all (fun (k, slo) -> Server.slo_of_string k = Some slo && Server.slo_name slo = k)
       Server.slo_names);
  Alcotest.(check bool) "unknown key" true (Server.slo_of_string "p50" = None)

(* ------------------------------------------------------------------ *)
(* Flight dumps                                                        *)
(* ------------------------------------------------------------------ *)

let test_dump_triggers () =
  with_temp @@ fun path ->
  let reason () = (Flight.load path).Flight.d_reason in
  let srv = Server.create { config with flight = Some path } in
  Alcotest.(check string) "startup" "startup" (reason ());
  let batches = Service.synth (Server.service srv) ~seed:7 ~events:64 ~batch:1 in
  List.iteri
    (fun i b ->
      Server.offer srv b;
      if i = 62 then Alcotest.(check string) "no periodic dump before 64" "startup" (reason ()))
    batches;
  Alcotest.(check string) "periodic after 64 applied batches" "periodic" (reason ());
  (match Server.offer srv [ Service.Leave 10_000 ] with
  | () -> Alcotest.fail "a rejected batch without admission control must raise"
  | exception Server.Error m ->
      Alcotest.(check bool) "service's message" true (String.length m > 0));
  Alcotest.(check string) "apply-failure" "apply-failure" (reason ());
  let s = Server.finish srv in
  Alcotest.(check string) "shutdown" "shutdown" (reason ());
  Alcotest.(check int) "failed batch not applied" 64 s.Server.totals.Service.batches;
  Alcotest.(check bool) "valid" true s.Server.valid;
  Server.dump srv "signal-term";
  Alcotest.(check string) "caller dump" "signal-term" (reason ())

let test_wal_dump_default_and_recover () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let _, s, _ = serve { config with wal = Some dir } (synth 20) in
  let dump = Flight.load (Filename.concat dir "flight.fdr") in
  Alcotest.(check string) "dump under the WAL directory" "shutdown" dump.Flight.d_reason;
  let srv, r, _ =
    serve ~queries:[ (0, 1) ] { config with source = Server.Recover; wal = Some dir } (fun _ -> [])
  in
  Alcotest.(check int) "recovered every batch" s.Server.totals.Service.batches
    r.Server.totals.Service.batches;
  (match r.Server.recovery with
  | Some rv -> Alcotest.(check bool) "clean tail" true (rv.Wal.Store.rv_tail = Wal.Clean)
  | None -> Alcotest.fail "recovery report missing");
  Alcotest.(check bool) "query answered from the service" true
    (r.Server.queries = [ (0, 1, Service.slot_of_arc (Server.service srv) 0 1) ]);
  match Server.create { config with source = Server.Restore (Filename.concat dir "missing") } with
  | _ -> Alcotest.fail "missing snapshot must raise"
  | exception Server.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission drain                                                     *)
(* ------------------------------------------------------------------ *)

let test_drain_empties_queue () =
  (* rate 1 against batches of 4: most batches defer and are still
     queued when the stream ends *)
  let _, s, lines =
    serve { config with max_batch = Some 5; rate = Some 1.; health_every = Some 1_000 } (synth 40)
  in
  let c = Option.get s.Server.admission in
  Alcotest.(check bool) "batches were deferred" true (c.Admission.c_deferred > 0);
  Alcotest.(check int) "every deferred batch released" c.Admission.c_deferred
    c.Admission.c_released;
  (match samples lines with
  | [ h ] -> Alcotest.(check int) "queue_depth after drain" 0 (int_field "queue_depth" h)
  | l -> Alcotest.failf "expected one sample, got %d" (List.length l));
  Alcotest.(check int) "every event applied" 40 s.Server.totals.Service.events;
  Alcotest.(check bool) "valid" true s.Server.valid

(* ------------------------------------------------------------------ *)
(* Conservation                                                        *)
(* ------------------------------------------------------------------ *)

(* Rates from far below the stream to unlimited, batch caps under and
   over the batch size, oversized batches admission rejects and batches
   naming an unknown node the service skips: every offered event is
   applied, skipped, rejected or shed exactly once, and the drain
   leaves nothing queued. *)
let gen_shape =
  QCheck2.Gen.(
    let* rate = oneofl [ None; Some 1e-6; Some 0.01; Some 0.5; Some 3.; Some Float.infinity ] in
    let* max_batch = oneof [ return None; map Option.some (int_range 1 8) ] in
    let* events = int_bound 80 in
    let* batch = int_range 1 8 in
    let* junk = list_size (int_bound 4) (pair nat bool) in
    return (rate, max_batch, events, batch, junk))

let conservation (rate, max_batch, events, batch, junk) =
  (* admission control on, so a batch the service rejects is skipped *)
  let rate = if rate = None && max_batch = None then Some Float.infinity else rate in
  let offered = ref 0 in
  let stream svc =
    let insert bs (k, oversized) =
      let k = k mod (List.length bs + 1) in
      let b =
        if oversized then List.init 9 (fun i -> Service.Leave i) else [ Service.Leave 10_000 ]
      in
      List.filteri (fun i _ -> i < k) bs @ (b :: List.filteri (fun i _ -> i >= k) bs)
    in
    let bs = List.fold_left insert (synth ~batch events svc) junk in
    offered := List.length (List.concat bs);
    bs
  in
  let _, s, lines = serve { config with rate; max_batch; health_every = Some 1_000 } stream in
  let c = Option.get s.Server.admission in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  if s.Server.offered <> !offered then fail "offered %d of %d" s.Server.offered !offered
  else if
    s.Server.offered
    <> s.Server.applied + s.Server.skipped + s.Server.rejected + c.Admission.c_shed
  then
    fail "offered %d <> applied %d + skipped %d + rejected %d + shed %d" s.Server.offered
      s.Server.applied s.Server.skipped s.Server.rejected c.Admission.c_shed
  else if s.Server.applied <> s.Server.totals.Service.events then
    fail "applied %d, service counted %d" s.Server.applied s.Server.totals.Service.events
  else if c.Admission.c_released <> c.Admission.c_deferred then
    fail "released %d of %d deferred" c.Admission.c_released c.Admission.c_deferred
  else
    match samples lines with
    | [ h ] ->
        let qd = int_field "queue_depth" h in
        qd = 0 || fail "queue_depth %d after drain" qd
    | l -> fail "expected one sample, got %d" (List.length l)

let prop_conservation =
  Generators.qtest "offered = applied + skipped + rejected + shed" ~count:100 gen_shape
    conservation

let () =
  Alcotest.run "fdlsp_server"
    [
      ( "health",
        [
          Alcotest.test_case "sums reconcile with counters" `Quick test_health_reconciles;
          Alcotest.test_case "rejected batch is not a repair" `Quick
            test_rejected_batch_is_not_a_repair;
        ] );
      ("slo", [ Alcotest.test_case "burn" `Quick test_slo_burn ]);
      ( "flight",
        [
          Alcotest.test_case "dump triggers" `Quick test_dump_triggers;
          Alcotest.test_case "WAL default path and recovery" `Quick
            test_wal_dump_default_and_recover;
        ] );
      ( "admission",
        [
          Alcotest.test_case "drain empties the queue" `Quick test_drain_empties_queue;
          prop_conservation;
        ] );
    ]
