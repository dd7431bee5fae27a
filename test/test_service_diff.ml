(* Differential suite: the incremental service against the rebuild-
   per-batch reference ({!Service_ref}).

   After every batch the service's receipt, counts and the slot of every
   arc must equal the reference's, and a service whose views are read
   after every batch must hand out the reference's schedule and
   snapshot bytes.  A second service fed the same batches reads no view
   until the end, so its overlay spans many batches and it compacts
   only on its own.  Also here: the synthetic churn stream pinned
   byte for byte. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

(* Drives a read-every-batch service, a read-at-the-end service and the
   reference through one churn script. *)
let lockstep ?(refine = true) g scripts =
  let sched = Greedy.color g in
  let read = Service.create ~refine sched and quiet = Service.create ~refine sched in
  let st =
    List.fold_left
      (fun st hints ->
        let evs = Generators.realize_batch read hints in
        Service_ref.check_batch ~read:[ read ] ~unread:[ quiet ] st evs)
      (Service_ref.of_schedule ~refine sched)
      scripts
  in
  if Service.snapshot quiet <> Service_ref.snapshot st then
    failwith "unread service: final snapshot differs"

let differential ?refine (g, scripts) =
  match lockstep ?refine g scripts with
  | () -> true
  | exception Failure msg -> QCheck2.Test.fail_report msg

let with_scripts arb = QCheck2.Gen.pair arb (Generators.gen_service_batches ())

let prop name ?refine ~count arb =
  Generators.qtest ("service = reference: " ^ name) ~count (with_scripts arb)
    (differential ?refine)

let props =
  [
    prop "gnp" ~count:150 (Generators.arb_gnp ~max_n:14 ());
    prop "udg" ~count:100 (Generators.arb_udg ());
    prop "tree" ~count:100 (Generators.arb_tree ~max_n:30 ());
    prop "connected" ~count:100 (Generators.arb_connected ~max_n:16 ());
    prop "gnp, refine off" ~refine:false ~count:60 (Generators.arb_gnp ~max_n:14 ());
  ]

(* The write-ahead-log replay shape: thousands of single-event batches
   and no view read until the end.  The overlay bound is a few hundred
   rows and links here, and a batch dirties a node and its neighbours,
   so the service folds its overlay into the base inside [apply] a
   couple of dozen times over this stream, and the checks in between
   read overlays of every size.  (The qcheck properties above stay
   under the bound, so their unread service keeps one overlay for the
   whole script.) *)
let test_long_unread_stream () =
  let n = 150 in
  let side = sqrt (float_of_int n *. Float.pi /. 8.) in
  let g = fst (Gen.udg (Random.State.make [| 24; n |]) ~n ~side ~radius:1.) in
  let sched = Greedy.color g in
  let svc = Service.create sched in
  let batches = Service.synth svc ~seed:4 ~events:2000 ~batch:1 in
  let st =
    List.fold_left
      (fun st evs -> Service_ref.check_batch ~unread:[ svc ] st evs)
      (Service_ref.of_schedule sched) batches
  in
  Alcotest.(check string) "snapshot after the stream" (Service_ref.snapshot st)
    (Service.snapshot svc);
  Alcotest.(check bool) "valid" true (Schedule.valid (Service.schedule svc))

(* [synth] lists the live and ghost nodes once per batch instead of
   once per event; the stream it draws must not change.  The digests
   are of the JSONL rendering (one event per line, a flush marker after
   each batch) produced by the per-event implementation. *)
let stream_digest g ~seed ~events ~batch =
  let svc = Service.create (Greedy.color g) in
  let b = Buffer.create 4096 in
  List.iter
    (fun evs ->
      List.iter
        (fun ev ->
          Buffer.add_string b (Service.event_to_json ev);
          Buffer.add_char b '\n')
        evs;
      Buffer.add_string b Service.flush_json;
      Buffer.add_char b '\n')
    (Service.synth svc ~seed ~events ~batch);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_synth_pinned () =
  let udg = fst (Gen.udg (Random.State.make [| 24; 60 |]) ~n:60 ~side:6. ~radius:1.) in
  Alcotest.(check string) "udg, batches of 8" "de607c8fa988f4fe98170fbb99ac8334"
    (stream_digest udg ~seed:5 ~events:600 ~batch:8);
  Alcotest.(check string) "cycle, batches of 1" "5f5d4508b984f51e4a0e5822bf61fe55"
    (stream_digest (Gen.cycle 12) ~seed:9 ~events:300 ~batch:1);
  Alcotest.(check string) "empty graph" "3092f1a3dc2afbfd8461c0ce89aaea7e"
    (stream_digest (Graph.create ~n:0 []) ~seed:2 ~events:100 ~batch:3)

let () =
  Alcotest.run "fdlsp_service_diff"
    [
      ("differential", props);
      ( "streams",
        [
          Alcotest.test_case "long unread stream" `Quick test_long_unread_stream;
          Alcotest.test_case "synth stream pinned" `Quick test_synth_pinned;
        ] );
    ]
