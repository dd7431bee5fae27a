(* Scale checks, run by `dune build @slow`. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

(* DFS sends O(m Δ) messages, so its event budget has to grow with the
   graph: at n = 11,000 and average degree 8 a fixed 10^6 budget runs
   out before the token finishes. *)
let test_dfs_udg_11k () =
  let n = 11_000 in
  let side = sqrt (float_of_int n *. Float.pi /. 8.) in
  let g = fst (Gen.udg (Random.State.make [| 11; n |]) ~n ~side ~radius:1.) in
  let r = Dfs_sched.run g in
  Alcotest.(check bool) "complete and valid" true (Schedule.valid r.Dfs_sched.schedule)

(* The service against its rebuild-per-batch reference at a size
   where a missed row or a wrong merge in the compaction has room to
   show: 200 batches of 8 synthetic events on a 20,000-node UDG of
   average degree 8.  One service is read after every batch (its
   schedule, and its snapshot bytes every 20th batch), the other only
   at the end. *)
let test_service_udg_20k () =
  let n = 20_000 in
  let side = sqrt (float_of_int n *. Float.pi /. 8.) in
  let g = fst (Gen.udg (Random.State.make [| 20; n |]) ~n ~side ~radius:1.) in
  let sched = Greedy.color g in
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
          Alcotest.test_case "dfs on an 11k-node udg" `Slow test_dfs_udg_11k;
          Alcotest.test_case "service = reference on a 20k-node udg" `Slow test_service_udg_20k;
        ] );
    ]
