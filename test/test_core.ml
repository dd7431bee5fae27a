(* Tests for the paper's algorithms: distributed MIS, DistMIS (both
   variants), the asynchronous DFS scheduler, and the D-MGC baseline. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core

let rng = Generators.rng [| 0xA160; 3 |]

(* Graph arbitraries live in Generators (shared across the suite). *)
let arb_gnp ?(max_n = 16) () = Generators.arb_gnp ~max_n ~max_p:0.7 ()
let arb_udg = Generators.arb_udg
let qtest name ?(count = 60) arb prop = Generators.qtest name ~count arb prop

let all_active g = Array.make (Graph.n g) true

(* ------------------------------------------------------------------ *)
(* MIS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mis_simple () =
  let g = Gen.path 5 in
  let mis, stats = Mis.compute ~algo:Mis.Local_min g ~active:(all_active g) in
  Alcotest.(check bool) "independent" true (Mis.is_independent g mis);
  Alcotest.(check bool) "maximal" true (Mis.is_maximal g ~active:(all_active g) mis);
  Alcotest.(check bool) "node 0 wins first" true mis.(0);
  Alcotest.(check bool) "some rounds" true (stats.Stats.rounds > 0)

let test_mis_respects_active () =
  let g = Gen.complete 6 in
  let active = [| true; false; true; false; true; false |] in
  let mis, _ = Mis.compute ~algo:Mis.Local_min g ~active in
  Alcotest.(check bool) "inactive never join" true (not (mis.(1) || mis.(3) || mis.(5)));
  (* actives form a clique, so exactly one joins *)
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mis in
  Alcotest.(check int) "one winner in clique" 1 count

let test_mis_all_inactive () =
  let g = Gen.path 4 in
  let mis, stats = Mis.compute ~algo:Mis.Local_min g ~active:(Array.make 4 false) in
  Alcotest.(check bool) "empty" true (Array.for_all not mis);
  Alcotest.(check int) "zero rounds" 0 stats.Stats.rounds

let test_mis_edgeless () =
  let g = Graph.create ~n:5 [] in
  let mis, _ = Mis.compute ~algo:(Mis.Luby (rng ())) g ~active:(all_active g) in
  Alcotest.(check bool) "everyone joins" true (Array.for_all Fun.id mis)

let prop_mis_luby =
  qtest "Luby MIS independent+maximal" ~count:150 (arb_gnp ~max_n:30 ()) (fun g ->
      let mis, _ = Mis.compute ~algo:(Mis.Luby (rng ())) g ~active:(all_active g) in
      Mis.is_independent g mis && Mis.is_maximal g ~active:(all_active g) mis)

let prop_mis_local_min =
  qtest "local-min MIS independent+maximal" ~count:150 (arb_gnp ~max_n:30 ()) (fun g ->
      let mis, _ = Mis.compute ~algo:Mis.Local_min g ~active:(all_active g) in
      Mis.is_independent g mis && Mis.is_maximal g ~active:(all_active g) mis)

let prop_mis_partial_active =
  qtest "MIS on random active subsets" (arb_gnp ~max_n:20 ()) (fun g ->
      let r = rng () in
      let active = Array.init (Graph.n g) (fun _ -> Random.State.bool r) in
      let mis, _ = Mis.compute ~algo:(Mis.Luby r) g ~active in
      let ok_inactive = ref true in
      Array.iteri (fun v m -> if m && not active.(v) then ok_inactive := false) mis;
      !ok_inactive && Mis.is_independent g mis && Mis.is_maximal g ~active mis)

let test_mis_deterministic () =
  let g = Gen.gnm (rng ()) ~n:40 ~m:120 in
  let m1, s1 = Mis.compute ~algo:Mis.Local_min g ~active:(all_active g) in
  let m2, s2 = Mis.compute ~algo:Mis.Local_min g ~active:(all_active g) in
  Alcotest.(check bool) "same set" true (m1 = m2);
  Alcotest.(check bool) "same stats" true (s1 = s2)

(* ------------------------------------------------------------------ *)
(* Cole-Vishkin and the GPS pipeline                                   *)
(* ------------------------------------------------------------------ *)

let proper_coloring g colors =
  let ok = ref true in
  Graph.iter_edges g (fun _ u v -> if colors.(u) = colors.(v) then ok := false);
  !ok

let test_cv_three_coloring () =
  List.iter
    (fun n ->
      let g = Gen.cycle n in
      let colors, _ = Cole_vishkin.three_color g in
      Alcotest.(check bool) (Printf.sprintf "C%d proper" n) true (proper_coloring g colors);
      Alcotest.(check bool)
        (Printf.sprintf "C%d three colors" n)
        true
        (Array.for_all (fun c -> c >= 0 && c <= 2) colors))
    [ 3; 4; 5; 7; 8; 100; 4097 ]

let test_cv_log_star_rounds () =
  (* the round count must grow like log*, i.e. barely at all *)
  let rounds n = (snd (Cole_vishkin.three_color (Gen.cycle n))).Stats.rounds in
  Alcotest.(check bool) "100k-ring in ~a dozen rounds" true (rounds 100_000 <= 15);
  Alcotest.(check bool) "monotone-ish schedule" true
    (Cole_vishkin.reduction_rounds 100_000 <= Cole_vishkin.reduction_rounds 1_000_000_000 + 1)

let test_cv_rejects_non_cycle () =
  Alcotest.check_raises "path" (Invalid_argument "Cole_vishkin.three_color: not a cycle")
    (fun () -> ignore (Cole_vishkin.three_color (Gen.path 5)))

let prop_cv_ring_mis =
  let arb =
    let gen st = Gen.cycle (3 + Random.State.int st 200) in
    QCheck2.Gen.make_primitive ~gen ~shrink:(fun _ -> Seq.empty)
  in
  qtest "ring MIS from 3-coloring" ~count:60 arb (fun g ->
      let mis, _ = Cole_vishkin.ring_mis g in
      Mis.is_independent g mis && Mis.is_maximal g ~active:(all_active g) mis)

let test_gps_forests () =
  let g = Gen.complete 4 in
  let count, parent = Gps.forests g ~active:(all_active g) in
  Alcotest.(check int) "K4 forests" 3 count;
  (* node 0's higher neighbors ascending are 1, 2, 3 *)
  Alcotest.(check int) "forest 0 parent of 0" 1 parent.(0).(0);
  Alcotest.(check int) "forest 2 parent of 0" 3 parent.(2).(0);
  Alcotest.(check int) "max id is root everywhere" (-1) parent.(0).(3)

let prop_gps_coloring =
  qtest "GPS is a proper (delta+1)-coloring" ~count:80 (arb_gnp ~max_n:30 ()) (fun g ->
      let colors, _ = Gps.color g ~active:(all_active g) in
      proper_coloring g colors
      && Array.for_all (fun c -> c >= 0 && c <= Graph.max_degree g) colors)

let prop_gps_mis =
  qtest "GPS MIS independent+maximal" ~count:80 (arb_gnp ~max_n:30 ()) (fun g ->
      let mis, _ = Gps.mis g ~active:(all_active g) in
      Mis.is_independent g mis && Mis.is_maximal g ~active:(all_active g) mis)

let prop_gps_partial_active =
  qtest "GPS on random active subsets" ~count:40 (arb_gnp ~max_n:20 ()) (fun g ->
      let r = rng () in
      let active = Array.init (Graph.n g) (fun _ -> Random.State.bool r) in
      let mis, _ = Gps.mis g ~active in
      Mis.is_independent g mis
      && Mis.is_maximal g ~active mis
      && Array.for_all Fun.id (Array.mapi (fun v m -> (not m) || active.(v)) mis))

let test_gps_round_shape () =
  (* rounds must scale with delta^2 + log* n, not with n *)
  let rounds g = (snd (Gps.mis g ~active:(all_active g))).Stats.rounds in
  let small = rounds (Gen.grid 5 5) in
  let big = rounds (Gen.grid 40 40) in
  Alcotest.(check bool)
    (Printf.sprintf "64x more nodes, similar rounds (%d -> %d)" small big)
    true
    (big <= small + 10)

let prop_dist_mis_with_gps =
  qtest "DistMIS with the GPS subroutine" ~count:25 (arb_gnp ~max_n:14 ()) (fun g ->
      let r = Dist_mis.run ~mis:Mis.Gps ~variant:Dist_mis.Gbg g in
      Schedule.valid r.Dist_mis.schedule)

(* ------------------------------------------------------------------ *)
(* DistMIS                                                             *)
(* ------------------------------------------------------------------ *)

let run_dist ?(variant = Dist_mis.Gbg) g = Dist_mis.run ~mis:(Mis.Luby (rng ())) ~variant g

let test_dist_mis_shapes () =
  let check name g =
    List.iter
      (fun variant ->
        let r = run_dist ~variant g in
        Alcotest.(check bool) (name ^ " valid") true (Schedule.valid r.Dist_mis.schedule);
        let slots = Schedule.num_slots r.Dist_mis.schedule in
        Alcotest.(check bool)
          (Printf.sprintf "%s slots in bounds (%d)" name slots)
          true
          (Bounds.lower g <= slots && slots <= max 1 (Bounds.upper g)))
      [ Dist_mis.Gbg; Dist_mis.General ]
  in
  check "path" (Gen.path 8);
  check "cycle" (Gen.cycle 9);
  check "star" (Gen.star 7);
  check "K5" (Gen.complete 5);
  check "K33" (Gen.complete_bipartite 3 3);
  check "grid" (Gen.grid 4 4);
  check "tree" (Gen.random_tree (rng ()) 30)

let test_dist_mis_star_optimal () =
  (* all arcs of a star mutually conflict: every algorithm must use
     exactly 2*delta slots *)
  let g = Gen.star 8 in
  let r = run_dist g in
  Alcotest.(check int) "2 delta" 14 (Schedule.num_slots r.Dist_mis.schedule)

let test_dist_mis_empty_and_isolated () =
  let r = run_dist (Graph.create ~n:4 []) in
  Alcotest.(check bool) "complete" true (Schedule.is_complete r.Dist_mis.schedule);
  Alcotest.(check bool) "outer progress" true (r.Dist_mis.outer_iters >= 1)

let prop_dist_mis_gbg_valid =
  qtest "DistMIS/GBG valid on G(n,p)" (arb_gnp ()) (fun g ->
      Schedule.valid (run_dist ~variant:Dist_mis.Gbg g).Dist_mis.schedule)

let prop_dist_mis_general_valid =
  qtest "DistMIS/General valid on G(n,p)" (arb_gnp ()) (fun g ->
      Schedule.valid (run_dist ~variant:Dist_mis.General g).Dist_mis.schedule)

let prop_dist_mis_udg_valid =
  qtest "DistMIS/GBG valid on UDG" ~count:40 (arb_udg ()) (fun g ->
      Schedule.valid (run_dist ~variant:Dist_mis.Gbg g).Dist_mis.schedule)

let prop_dist_mis_local_min =
  qtest "DistMIS with deterministic MIS" ~count:40 (arb_gnp ()) (fun g ->
      let r = Dist_mis.run ~mis:Mis.Local_min ~variant:Dist_mis.Gbg g in
      Schedule.valid r.Dist_mis.schedule)

(* Cross-engine determinism: the same deterministic protocol must yield
   the same schedule whether its rounds run on the synchronous engine or
   on the asynchronous engine behind the Lockstep synchronizer (unit
   delays).  Local_min is used because Luby draws from a shared rng,
   which the two engines would consume in different interleavings. *)
let prop_dist_mis_cross_engine_deterministic =
  qtest "DistMIS identical under Sync and Lockstep/Async engines" ~count:20
    (arb_gnp ~max_n:12 ()) (fun g ->
      let sync = Dist_mis.run ~mis:Mis.Local_min ~variant:Dist_mis.Gbg g in
      let async =
        Dist_mis.run ~engine:(Lockstep.runner ()) ~mis:Mis.Local_min
          ~variant:Dist_mis.Gbg g
      in
      let same = ref true in
      Arc.iter g (fun a ->
          if
            Schedule.get sync.Dist_mis.schedule a
            <> Schedule.get async.Dist_mis.schedule a
          then same := false);
      !same)

let prop_dist_mis_slots_in_bounds =
  qtest "DistMIS slots within [LB, UB]" ~count:40 (arb_gnp ()) (fun g ->
      let r = run_dist g in
      let slots = Schedule.num_slots r.Dist_mis.schedule in
      Bounds.lower g <= slots && slots <= max 1 (Bounds.upper g))

let prop_dist_mis_outer_bound =
  (* Lemma 7: at most delta + 1 disjoint MIS peel the whole graph *)
  qtest "DistMIS outer iterations <= delta + 1 (Lemma 7)" ~count:60 (arb_gnp ()) (fun g ->
      let r = run_dist g in
      r.Dist_mis.outer_iters <= Graph.max_degree g + 1)

let prop_luby_round_bound =
  (* Luby finishes in O(log n) phases w.h.p.; the constant here is so
     generous that a failure indicates a protocol bug, not bad luck *)
  qtest "Luby MIS rounds are logarithmic-ish" ~count:60 (arb_gnp ~max_n:60 ()) (fun g ->
      let _, stats = Mis.compute ~algo:(Mis.Luby (rng ())) g ~active:(all_active g) in
      let n = float_of_int (max 2 (Graph.n g)) in
      float_of_int stats.Stats.rounds <= 40. +. (30. *. log n))

(* ------------------------------------------------------------------ *)
(* DFS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dfs_tree_exact () =
  (* trees: DFS assigns exactly 2 delta slots (Section 8) *)
  let t = Gen.random_tree (rng ()) 40 in
  let r = Dfs_sched.run t in
  Alcotest.(check bool) "valid" true (Schedule.valid r.Dfs_sched.schedule);
  Alcotest.(check int) "2 delta on trees" (2 * Graph.max_degree t)
    (Schedule.num_slots r.Dfs_sched.schedule)

let test_dfs_star () =
  let r = Dfs_sched.run (Gen.star 6) in
  Alcotest.(check int) "2 delta" 10 (Schedule.num_slots r.Dfs_sched.schedule)

let test_dfs_complete () =
  (* complete graphs need a unique slot per arc: delta^2 + delta *)
  let r = Dfs_sched.run (Gen.complete 5) in
  Alcotest.(check int) "K5 slots" 20 (Schedule.num_slots r.Dfs_sched.schedule)

let test_dfs_token_moves () =
  let g = Gen.gnm (rng ()) ~n:30 ~m:60 in
  if Traversal.is_connected g then begin
    let r = Dfs_sched.run g in
    Alcotest.(check int) "n-1 forward moves" 29 r.Dfs_sched.token_moves
  end

let test_dfs_disconnected () =
  let g = Graph.create ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let r = Dfs_sched.run g in
  Alcotest.(check bool) "valid" true (Schedule.valid r.Dfs_sched.schedule);
  (* missing a component root must be detected *)
  Alcotest.check_raises "missing root"
    (Invalid_argument "Dfs_sched.run: incomplete schedule (missing component root?)")
    (fun () -> ignore (Dfs_sched.run ~roots:[ 0 ] g))

let test_dfs_linear_time () =
  (* O(n) asynchronous time: the per-visit overhead is constant *)
  let g = Gen.path 50 in
  let r = Dfs_sched.run g in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d <= 8n" r.Dfs_sched.stats.Stats.rounds)
    true
    (r.Dfs_sched.stats.Stats.rounds <= 8 * 50)

let test_dfs_policies_differ_but_valid () =
  let g = Gen.gnm (rng ()) ~n:25 ~m:60 in
  let a = Dfs_sched.run ~policy:Dfs_sched.Max_degree g in
  let b = Dfs_sched.run ~policy:Dfs_sched.Min_id g in
  Alcotest.(check bool) "max-degree valid" true (Schedule.valid a.Dfs_sched.schedule);
  Alcotest.(check bool) "min-id valid" true (Schedule.valid b.Dfs_sched.schedule)

let prop_dfs_valid =
  qtest "DFS valid on G(n,p)" (arb_gnp ()) (fun g ->
      Schedule.valid (Dfs_sched.run g).Dfs_sched.schedule)

let prop_dfs_valid_udg =
  qtest "DFS valid on UDG" ~count:40 (arb_udg ()) (fun g ->
      Schedule.valid (Dfs_sched.run g).Dfs_sched.schedule)

let prop_dfs_valid_random_delays =
  qtest "DFS valid under random delays" ~count:40 (arb_gnp ()) (fun g ->
      let d = Async.Uniform (rng (), 0.2, 1.0) in
      Schedule.valid (Dfs_sched.run ~delay:d g).Dfs_sched.schedule)

let prop_dfs_slots_in_bounds =
  qtest "DFS slots within [LB, UB]" (arb_gnp ()) (fun g ->
      let r = Dfs_sched.run g in
      let slots = Schedule.num_slots r.Dfs_sched.schedule in
      Bounds.lower g <= slots && slots <= max 1 (Bounds.upper g))

(* ------------------------------------------------------------------ *)
(* D-MGC                                                               *)
(* ------------------------------------------------------------------ *)

let test_dmgc_shapes () =
  let check name g =
    let r = Dmgc.run g in
    Alcotest.(check bool) (name ^ " valid") true (Schedule.valid r.Dmgc.schedule);
    Alcotest.(check bool)
      (name ^ " base <= delta+1")
      true
      (r.Dmgc.base_colors <= Graph.max_degree g + 1)
  in
  check "path" (Gen.path 9);
  check "cycle" (Gen.cycle 8);
  check "star" (Gen.star 7);
  check "K6" (Gen.complete 6);
  check "K44" (Gen.complete_bipartite 4 4);
  check "grid" (Gen.grid 4 5)

let test_dmgc_tree_no_injection () =
  (* on trees a consistent orientation always exists *)
  let t = Gen.random_tree (rng ()) 40 in
  let r = Dmgc.run t in
  Alcotest.(check int) "no injected colors" 0 r.Dmgc.injected_edges;
  Alcotest.(check bool) "valid" true (Schedule.valid r.Dmgc.schedule)

let test_dmgc_empty () =
  let r = Dmgc.run (Graph.create ~n:3 []) in
  Alcotest.(check int) "no colors" 0 r.Dmgc.base_colors;
  Alcotest.(check bool) "complete" true (Schedule.is_complete r.Dmgc.schedule)

let prop_dmgc_valid =
  qtest "D-MGC valid on G(n,p)" (arb_gnp ()) (fun g -> Schedule.valid (Dmgc.run g).Dmgc.schedule)

let prop_dmgc_valid_udg =
  qtest "D-MGC valid on UDG" ~count:40 (arb_udg ()) (fun g ->
      Schedule.valid (Dmgc.run g).Dmgc.schedule)

(* D-MGC against the reference implementation of its phase 2
   (test/dmgc_ref.ml): the whole result, and every color class's
   orientation.  Dense UDGs (average degree 4-12) make most interaction
   components unorientable, so the deferral order is exercised, not
   just the first search. *)
let arb_dense_udg =
  Generators.make (fun st ->
      let n = 20 + Random.State.int st 50 in
      let degree = 4. +. Random.State.float st 8. in
      let side = sqrt (float_of_int n *. Float.pi /. degree) in
      fst (Gen.udg st ~n ~side ~radius:1.))

let dmgc_matches_ref g =
  let r = Dmgc.run g and r' = Dmgc_ref.run g in
  Schedule.equal r.Dmgc.schedule r'.Dmgc.schedule
  && r.Dmgc.stats = r'.Dmgc.stats
  && r.Dmgc.base_colors = r'.Dmgc.base_colors
  && r.Dmgc.injected_edges = r'.Dmgc.injected_edges
  &&
  let col, _ = Vizing.color g in
  let classes = Array.make (1 + Array.fold_left max (-1) col) [] in
  Array.iteri (fun e c -> classes.(c) <- e :: classes.(c)) col;
  Array.for_all (fun edges -> Dmgc.orient_class g edges = Dmgc_ref.orient_class g edges) classes

let prop_dmgc_ref_udg =
  qtest "D-MGC = reference on dense UDGs" ~count:30 arb_dense_udg dmgc_matches_ref

let prop_dmgc_ref_gnp =
  qtest "D-MGC = reference on G(n,p)" ~count:60 (arb_gnp ~max_n:30 ()) dmgc_matches_ref

(* A satisfiable class that the budgeted search still rejects: a center
   edge (0,1), listed last, interacting with 20 leaf edges that interact
   with nothing else.  Leaf 0 needs the center's direction to differ
   from its own, the other leaves need it to agree, so once every leaf
   has taken direction 0 the center fails, and chronological
   backtracking would need 2^19 decisions to flip leaves 1-19.  The
   search gives up at its budget of 200,000, and the center, of highest
   degree, is deferred; orienting it would have been possible. *)
let test_orient_budget_rejects_satisfiable () =
  let leaves = 20 in
  let leaf j = (2 + (2 * j), 3 + (2 * j)) in
  let links = List.init leaves (fun j -> if j = 0 then (1, fst (leaf j)) else (0, fst (leaf j))) in
  let g = Graph.create ~n:(2 + (2 * leaves)) (((0, 1) :: List.init leaves leaf) @ links) in
  let edge (u, v) = Option.get (Graph.edge_index g u v) in
  let center = edge (0, 1) in
  let cls = List.init leaves (fun j -> edge (leaf j)) @ [ center ] in
  let assigned, deferred = Dmgc.orient_class g cls in
  Alcotest.(check (list int)) "center deferred" [ center ] deferred;
  Alcotest.(check int) "every leaf oriented" leaves (List.length assigned);
  Alcotest.(check bool) "same as the reference" true
    (Dmgc_ref.orient_class g cls = (assigned, deferred))

let prop_orient_class_sound =
  (* orientations returned for any Vizing color class are pairwise
     conflict-free *)
  qtest "orient_class output is conflict-free" ~count:40 (arb_gnp ~max_n:20 ()) (fun g ->
      if Graph.m g = 0 then true
      else begin
        let col, _ = Vizing.color g in
        let classes = Hashtbl.create 8 in
        Array.iteri
          (fun e c ->
            let l = try Hashtbl.find classes c with Not_found -> [] in
            Hashtbl.replace classes c (e :: l))
          col;
        Hashtbl.fold
          (fun _ edges ok ->
            ok
            &&
            let assigned, _ = Dmgc.orient_class g edges in
            let arr = Array.of_list assigned in
            let fine = ref true in
            Array.iteri
              (fun i (e1, d1) ->
                Array.iteri
                  (fun j (e2, d2) ->
                    if i < j then begin
                      let a1 = Arc.of_edge ~edge:e1 ~dir:d1
                      and a2 = Arc.of_edge ~edge:e2 ~dir:d2 in
                      if Fdlsp_color.Conflict.conflict g a1 a2 then fine := false
                    end)
                  arr)
              arr;
            !fine)
          classes true
      end)

(* ------------------------------------------------------------------ *)
(* Scale and determinism                                               *)
(* ------------------------------------------------------------------ *)

let test_scale_udg_1000 () =
  let g, _ = Gen.udg (rng ()) ~n:1000 ~side:28. ~radius:1. in
  let dm = Dist_mis.run ~mis:(Mis.Luby (rng ())) ~variant:Dist_mis.Gbg g in
  Alcotest.(check bool) "distMIS valid at n=1000" true (Schedule.valid dm.Dist_mis.schedule);
  let df = Dfs_sched.run g in
  Alcotest.(check bool) "DFS valid at n=1000" true (Schedule.valid df.Dfs_sched.schedule);
  Alcotest.(check bool) "DFS async time linear-ish" true
    (df.Dfs_sched.stats.Stats.rounds <= 10 * Graph.n g)

let test_determinism () =
  let mk () = Gen.gnm (Random.State.make [| 77 |]) ~n:60 ~m:150 in
  let g = mk () in
  Alcotest.(check bool) "generator deterministic" true (Graph.equal g (mk ()));
  let dfs () = Schedule.colors (Dfs_sched.run g).Dfs_sched.schedule in
  Alcotest.(check bool) "DFS deterministic" true (dfs () = dfs ());
  let dm () =
    Schedule.colors
      (Dist_mis.run ~mis:(Mis.Luby (Random.State.make [| 5 |])) ~variant:Dist_mis.Gbg g)
        .Dist_mis.schedule
  in
  Alcotest.(check bool) "DistMIS deterministic under a fixed seed" true (dm () = dm ());
  let gps () =
    Schedule.colors (Dist_mis.run ~mis:Mis.Gps ~variant:Dist_mis.Gbg g).Dist_mis.schedule
  in
  Alcotest.(check bool) "GPS fully deterministic" true (gps () = gps ())

(* shape comparison the paper reports: D-MGC never beats DFS by much,
   and on average uses at least as many slots *)
let test_relative_shape () =
  let r = rng () in
  let total_dfs = ref 0 and total_dmgc = ref 0 and total_mis = ref 0 in
  for _ = 1 to 10 do
    let g = Gen.gnm r ~n:60 ~m:180 in
    total_dfs := !total_dfs + Schedule.num_slots (Dfs_sched.run g).Dfs_sched.schedule;
    total_dmgc := !total_dmgc + Schedule.num_slots (Dmgc.run g).Dmgc.schedule;
    total_mis :=
      !total_mis
      + Schedule.num_slots
          (Dist_mis.run ~mis:(Mis.Luby r) ~variant:Dist_mis.General g).Dist_mis.schedule
  done;
  Alcotest.(check bool)
    (Printf.sprintf "DFS (%d) <= D-MGC (%d) on average" !total_dfs !total_dmgc)
    true (!total_dfs <= !total_dmgc);
  Alcotest.(check bool)
    (Printf.sprintf "DistMIS (%d) <= D-MGC (%d) on average" !total_mis !total_dmgc)
    true (!total_mis <= !total_dmgc)

let () =
  Alcotest.run "fdlsp_core"
    [
      ( "mis",
        [
          Alcotest.test_case "path local-min" `Quick test_mis_simple;
          Alcotest.test_case "respects active set" `Quick test_mis_respects_active;
          Alcotest.test_case "all inactive" `Quick test_mis_all_inactive;
          Alcotest.test_case "edgeless" `Quick test_mis_edgeless;
          Alcotest.test_case "deterministic" `Quick test_mis_deterministic;
          prop_mis_luby;
          prop_mis_local_min;
          prop_mis_partial_active;
        ] );
      ( "deterministic",
        [
          Alcotest.test_case "CV three-coloring" `Quick test_cv_three_coloring;
          Alcotest.test_case "CV log* rounds" `Quick test_cv_log_star_rounds;
          Alcotest.test_case "CV rejects non-cycles" `Quick test_cv_rejects_non_cycle;
          Alcotest.test_case "GPS forest decomposition" `Quick test_gps_forests;
          Alcotest.test_case "GPS round shape" `Quick test_gps_round_shape;
          prop_cv_ring_mis;
          prop_gps_coloring;
          prop_gps_mis;
          prop_gps_partial_active;
          prop_dist_mis_with_gps;
        ] );
      ( "dist_mis",
        [
          Alcotest.test_case "named shapes" `Quick test_dist_mis_shapes;
          Alcotest.test_case "star optimal" `Quick test_dist_mis_star_optimal;
          Alcotest.test_case "edgeless" `Quick test_dist_mis_empty_and_isolated;
          prop_dist_mis_gbg_valid;
          prop_dist_mis_general_valid;
          prop_dist_mis_udg_valid;
          prop_dist_mis_local_min;
          prop_dist_mis_cross_engine_deterministic;
          prop_dist_mis_slots_in_bounds;
          prop_dist_mis_outer_bound;
          prop_luby_round_bound;
        ] );
      ( "dfs",
        [
          Alcotest.test_case "trees get 2 delta" `Quick test_dfs_tree_exact;
          Alcotest.test_case "star" `Quick test_dfs_star;
          Alcotest.test_case "complete" `Quick test_dfs_complete;
          Alcotest.test_case "token moves" `Quick test_dfs_token_moves;
          Alcotest.test_case "disconnected" `Quick test_dfs_disconnected;
          Alcotest.test_case "linear time" `Quick test_dfs_linear_time;
          Alcotest.test_case "policies" `Quick test_dfs_policies_differ_but_valid;
          prop_dfs_valid;
          prop_dfs_valid_udg;
          prop_dfs_valid_random_delays;
          prop_dfs_slots_in_bounds;
        ] );
      ( "scale",
        [
          Alcotest.test_case "1000-node UDG" `Slow test_scale_udg_1000;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "dmgc",
        [
          Alcotest.test_case "named shapes" `Quick test_dmgc_shapes;
          Alcotest.test_case "trees need no injection" `Quick test_dmgc_tree_no_injection;
          Alcotest.test_case "empty" `Quick test_dmgc_empty;
          Alcotest.test_case "relative shape vs DFS/DistMIS" `Slow test_relative_shape;
          prop_dmgc_valid;
          prop_dmgc_valid_udg;
          prop_orient_class_sound;
          Alcotest.test_case "budget rejects a satisfiable class" `Quick
            test_orient_budget_rejects_satisfiable;
          prop_dmgc_ref_udg;
          prop_dmgc_ref_gnp;
        ] );
    ]
