(* Scale checks, run by `dune build @slow`. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

let udg ~seed n =
  let side = sqrt (float_of_int n *. Float.pi /. 8.) in
  fst (Gen.udg (Random.State.make [| seed; n |]) ~n ~side ~radius:1.)

(* DFS sends O(m Δ) messages, so its event budget has to grow with the
   graph: at n = 11,000 and average degree 8 a fixed 10^6 budget runs
   out before the token finishes. *)
let test_dfs_udg_20k () =
  let r = Dfs_sched.run (udg ~seed:11 20_000) in
  Alcotest.(check bool) "complete and valid" true (Schedule.valid r.Dfs_sched.schedule)

(* At average degree 8 most of D-MGC's interaction components cannot be
   oriented, and each deferred edge used to cost a full budgeted
   search: one call took 131 s at this size. *)
let test_dmgc_udg_10k () =
  let g = udg ~seed:12 10_000 in
  let r = Dmgc.run g in
  Alcotest.(check bool) "complete and valid" true (Schedule.valid r.Dmgc.schedule);
  Alcotest.(check bool) "within the Lemma 6 bound" true
    (Schedule.num_slots r.Dmgc.schedule <= Bounds.upper g)

(* The service against its rebuild-per-batch reference at a size
   where a missed row or a wrong merge in the compaction has room to
   show: 200 batches of 8 synthetic events on a 20,000-node UDG of
   average degree 8.  One service is read after every batch (its
   schedule, and its snapshot bytes every 20th batch), the other only
   at the end. *)
let test_service_udg_20k () =
  let sched = Greedy.color (udg ~seed:20 20_000) in
  let read = Service.create sched and quiet = Service.create sched in
  let st =
    List.fold_left
      (fun st evs ->
        let bytes = (st.Service_ref.totals.Service.batches + 1) mod 20 = 0 in
        Service_ref.check_batch ~bytes ~read:[ read ] ~unread:[ quiet ] st evs)
      (Service_ref.of_schedule sched)
      (Service.synth read ~seed:7 ~events:1600 ~batch:8)
  in
  Alcotest.(check bool) "unread service ends at the reference's snapshot" true
    (Service.snapshot quiet = Service_ref.snapshot st)

let () =
  Alcotest.run "fdlsp_slow"
    [
      ( "scale",
        [
          Alcotest.test_case "dfs on a 20k-node udg" `Slow test_dfs_udg_20k;
          Alcotest.test_case "dmgc on a 10k-node udg" `Slow test_dmgc_udg_10k;
          Alcotest.test_case "service = reference on a 20k-node udg" `Slow test_service_udg_20k;
        ] );
    ]
