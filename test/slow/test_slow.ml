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

let () =
  Alcotest.run "fdlsp_slow"
    [ ("scale", [ Alcotest.test_case "dfs on an 11k-node udg" `Slow test_dfs_udg_11k ]) ]
