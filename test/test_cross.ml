(* Cross-algorithm metamorphic tests: properties that relate different
   components to each other rather than testing one in isolation. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

let rng = Generators.rng [| 0xC505; 2 |]

(* Graph arbitraries live in Generators (shared across the suite). *)
let qtest name ?(count = 40) arb prop = Generators.qtest name ~count arb prop
let arb_gnp ?(max_n = 9) () = Generators.arb_gnp ~min_n:2 ~max_n ~max_p:0.8 ()

let relabel rng g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let edges = Array.to_list (Graph.edges g) |> List.map (fun (u, v) -> (perm.(u), perm.(v))) in
  Graph.create ~n edges

let optimum g = (Dsatur.fdlsp_optimal g).Dsatur.colors_used

(* --- invariance ----------------------------------------------------- *)

let prop_optimum_relabel_invariant =
  qtest "exact optimum is invariant under node relabeling" ~count:30 (arb_gnp ~max_n:7 ())
    (fun g ->
      let r = rng () in
      let o = optimum g in
      o = optimum (relabel r g) && o = optimum (relabel r g))

let prop_bounds_relabel_invariant =
  qtest "Theorem 1 bound is invariant under node relabeling" (arb_gnp ()) (fun g ->
      Bounds.lower g = Bounds.lower (relabel (rng ()) g))

(* --- monotonicity --------------------------------------------------- *)

let with_extra_edge rng g =
  let n = Graph.n g in
  let candidates = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.mem_edge g u v) then candidates := (u, v) :: !candidates
    done
  done;
  match !candidates with
  | [] -> None
  | l ->
      let e = List.nth l (Random.State.int rng (List.length l)) in
      Some (Graph.create ~n (e :: Array.to_list (Graph.edges g)))

let prop_optimum_edge_monotone =
  qtest "exact optimum grows (weakly) with edges" ~count:30 (arb_gnp ~max_n:6 ()) (fun g ->
      match with_extra_edge (rng ()) g with
      | None -> true
      | Some g' -> optimum g <= optimum g')

let prop_lower_bound_edge_monotone =
  qtest "Theorem 1 bound grows (weakly) with edges" (arb_gnp ()) (fun g ->
      match with_extra_edge (rng ()) g with
      | None -> true
      | Some g' -> Bounds.lower g <= Bounds.lower g')

(* --- dominance ------------------------------------------------------ *)

let prop_exact_dominates_heuristics =
  qtest "optimum <= every algorithm's slots" ~count:25 (arb_gnp ~max_n:7 ()) (fun g ->
      let opt = optimum g in
      let slots sched = Schedule.num_slots sched in
      opt <= slots (Dfs_sched.run g).Dfs_sched.schedule
      && opt
         <= slots
              (Dist_mis.run ~mis:(Mis.Luby (rng ())) ~variant:Dist_mis.Gbg g)
                .Dist_mis.schedule
      && opt <= slots (Dmgc.run g).Dmgc.schedule
      && opt <= slots (Greedy.color g)
      && opt <= slots (Randomized.run ~rng:(rng ()) g).Randomized.schedule)

let prop_trees_all_optimal =
  let arb = Generators.arb_tree ~max_n:25 () in
  qtest "on trees DFS = Tree_sched = 2 delta = LB" ~count:60 arb (fun g ->
      let target = 2 * Graph.max_degree g in
      Schedule.num_slots (Dfs_sched.run g).Dfs_sched.schedule = target
      && Schedule.num_slots (Tree_sched.schedule g) = target
      && Bounds.lower g = target)

(* --- representation round trips ------------------------------------- *)

let prop_schedule_normalize_preserves_validity =
  qtest "normalize preserves validity and slot count" (arb_gnp ~max_n:12 ()) (fun g ->
      let s = (Dfs_sched.run g).Dfs_sched.schedule in
      let n = Schedule.normalize s in
      Schedule.valid n && Schedule.num_slots n = Schedule.num_slots s)

(* frame execution agrees with the validator on corrupted schedules *)
let prop_frame_vs_validator =
  qtest "zero collisions <=> validator accepts" ~count:60 (arb_gnp ~max_n:10 ()) (fun g ->
      if Graph.m g = 0 then true
      else begin
        let s = Greedy.color g in
        (* corrupt with probability 1/2 *)
        let r = rng () in
        if Random.State.bool r then begin
          let a = Random.State.int r (Arc.count g) in
          let b = Random.State.int r (Arc.count g) in
          Schedule.set s a (Schedule.get s b)
        end;
        let report = Tdma.check_frame g s in
        Schedule.valid s = (report.Tdma.collisions = 0)
      end)

let () =
  Alcotest.run "fdlsp_cross"
    [
      ( "invariance",
        [ prop_optimum_relabel_invariant; prop_bounds_relabel_invariant ] );
      ( "monotonicity",
        [ prop_optimum_edge_monotone; prop_lower_bound_edge_monotone ] );
      ("dominance", [ prop_exact_dominates_heuristics; prop_trees_all_optimal ]);
      ( "roundtrips",
        [
          prop_schedule_normalize_preserves_validity;
          prop_frame_vs_validator;
        ] );
    ]
