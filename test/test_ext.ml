(* Tests for the extension modules: randomized distance-1 coloring,
   broadcast scheduling, the TDMA runtime, and dynamic repair. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

let rng = Generators.rng [| 0xE77; 5 |]

(* Graph arbitraries live in Generators (shared across the suite). *)
let arb_gnp ?(max_n = 16) () = Generators.arb_gnp ~max_n ~max_p:0.6 ()
let arb_connected = Generators.arb_connected ~max_n:25
let qtest name ?(count = 50) arb prop = Generators.qtest name ~count arb prop

(* ------------------------------------------------------------------ *)
(* Randomized                                                          *)
(* ------------------------------------------------------------------ *)

let test_randomized_basic () =
  let g = Gen.cycle 8 in
  let r = Randomized.run ~rng:(rng ()) g in
  Alcotest.(check bool) "valid" true (Schedule.valid r.Randomized.schedule);
  Alcotest.(check bool) "trials > 0" true (r.Randomized.trials > 0)

let test_randomized_edgeless () =
  let g = Graph.create ~n:4 [] in
  let r = Randomized.run ~rng:(rng ()) g in
  Alcotest.(check bool) "complete" true (Schedule.is_complete r.Randomized.schedule)

let prop_randomized_valid =
  qtest "randomized schedules validate" (arb_gnp ()) (fun g ->
      Schedule.valid (Randomized.run ~rng:(rng ()) g).Randomized.schedule)

let prop_randomized_windows =
  qtest "window sizes 1 and 6 both converge" ~count:25 (arb_gnp ~max_n:12 ()) (fun g ->
      Schedule.valid (Randomized.run ~window:1 ~rng:(rng ()) g).Randomized.schedule
      && Schedule.valid (Randomized.run ~window:6 ~rng:(rng ()) g).Randomized.schedule)

let test_randomized_longer_than_dfs () =
  (* the paper's observation: randomized tends to produce longer
     schedules; check on an averaged workload (weak inequality - it is a
     tendency, not a theorem) *)
  let r = rng () in
  let rand_total = ref 0 and dfs_total = ref 0 in
  for _ = 1 to 8 do
    let g = Gen.gnm r ~n:40 ~m:120 in
    rand_total :=
      !rand_total + Schedule.num_slots (Randomized.run ~rng:r g).Randomized.schedule;
    dfs_total := !dfs_total + Schedule.num_slots (Dfs_sched.run g).Dfs_sched.schedule
  done;
  Alcotest.(check bool)
    (Printf.sprintf "randomized (%d) >= DFS (%d)" !rand_total !dfs_total)
    true
    (!rand_total >= !dfs_total)

(* ------------------------------------------------------------------ *)
(* Broadcast                                                           *)
(* ------------------------------------------------------------------ *)

let test_broadcast_shapes () =
  let star = Gen.star 6 in
  let c = Broadcast.greedy star in
  Alcotest.(check bool) "valid" true (Broadcast.is_valid star c);
  (* star: everyone within distance 2 of everyone *)
  Alcotest.(check int) "star slots" 6 (Broadcast.num_slots c);
  let p = Gen.path 9 in
  let cp = Broadcast.greedy p in
  Alcotest.(check bool) "path valid" true (Broadcast.is_valid p cp);
  Alcotest.(check int) "path slots" 3 (Broadcast.num_slots cp)

let prop_broadcast_valid =
  qtest "broadcast schedules validate" (arb_gnp ()) (fun g ->
      Broadcast.is_valid g (Broadcast.greedy g))

let prop_broadcast_at_most_d2 =
  qtest "broadcast slots <= 1 + delta^2" (arb_gnp ()) (fun g ->
      let d = Graph.max_degree g in
      Broadcast.frame_length g <= 1 + (d * d))

let test_broadcast_invalid_detected () =
  let g = Gen.path 3 in
  Alcotest.(check bool) "same slot distance 2" false (Broadcast.is_valid g [| 0; 1; 0 |])

let test_broadcast_distributed_star () =
  let g = Gen.star 6 in
  let colors, stats = Broadcast.distributed ~mis:Mis.Local_min g in
  Alcotest.(check bool) "valid" true (Broadcast.is_valid g colors);
  Alcotest.(check int) "star needs n slots" 6 (Broadcast.num_slots colors);
  Alcotest.(check bool) "rounds counted" true (stats.Fdlsp_sim.Stats.rounds > 0)

let prop_broadcast_distributed_valid =
  qtest "distributed broadcast schedules validate" (arb_gnp ()) (fun g ->
      let colors, _ = Broadcast.distributed ~mis:(Mis.Luby (rng ())) g in
      Broadcast.is_valid g colors)

let prop_broadcast_distributed_bound =
  qtest "distributed broadcast slots <= 1 + delta^2" ~count:40 (arb_gnp ()) (fun g ->
      let colors, _ = Broadcast.distributed ~mis:(Mis.Luby (rng ())) g in
      let d = Graph.max_degree g in
      Broadcast.num_slots colors <= 1 + (d * d))

(* ------------------------------------------------------------------ *)
(* TDMA runtime                                                        *)
(* ------------------------------------------------------------------ *)

let prop_valid_schedule_no_collisions =
  qtest "valid schedule => zero collisions in a frame" (arb_gnp ()) (fun g ->
      let sched = Greedy.color g in
      let r = Tdma.check_frame g sched in
      r.Tdma.collisions = 0 && r.Tdma.transmissions = Arc.count g)

let test_corrupted_schedule_collides () =
  (* force the figure-1 hidden terminal: u->v and w->x share a slot *)
  let g = Gen.path 4 in
  let sched = Greedy.color g in
  let a = Arc.make g 0 1 and b = Arc.make g 2 3 in
  Schedule.set sched b (Schedule.get sched a);
  let r = Tdma.check_frame g sched in
  Alcotest.(check bool) "collision detected" true (r.Tdma.collisions > 0)

let test_convergecast_path () =
  let g = Gen.path 4 in
  let sched = Greedy.color g in
  let r = Tdma.convergecast g sched ~sink:0 ~packets:[| 0; 1; 1; 1 |] ~max_frames:100 in
  Alcotest.(check int) "all delivered" 3 r.Tdma.delivered;
  (* 3 packets over 3+2+1 = 6 hops *)
  Alcotest.(check int) "tx slots = hop count" 6 r.Tdma.tx_slots;
  Alcotest.(check int) "rx = tx under link scheduling" r.Tdma.tx_slots r.Tdma.rx_slots

let test_convergecast_unreachable () =
  let g = Graph.create ~n:3 [ (0, 1) ] in
  let sched = Greedy.color g in
  Alcotest.check_raises "unreachable source"
    (Invalid_argument "Tdma.convergecast: packet source cannot reach the sink") (fun () ->
      ignore (Tdma.convergecast g sched ~sink:0 ~packets:[| 0; 0; 1 |] ~max_frames:10))

let test_convergecast_frame_budget () =
  let g = Gen.path 3 in
  let sched = Greedy.color g in
  Alcotest.check_raises "budget"
    (Invalid_argument "Tdma.convergecast: max_frames exhausted") (fun () ->
      ignore (Tdma.convergecast g sched ~sink:0 ~packets:[| 0; 50; 50 |] ~max_frames:2))

let prop_convergecast_delivers =
  qtest "convergecast delivers everything on connected graphs" ~count:40 (arb_connected ())
    (fun g ->
      let sched = (Dfs_sched.run g).Dfs_sched.schedule in
      let packets = Array.make (Graph.n g) 1 in
      let r = Tdma.convergecast g sched ~sink:0 ~packets ~max_frames:10_000 in
      r.Tdma.delivered = Graph.n g - 1)

let test_slot_ordering_path () =
  (* path 4 -> 3 -> 2 -> 1 -> 0(sink): craft an anti-ordered schedule
     (shallow tree arcs first), then check the optimizer collapses the
     convergecast to very few frames *)
  let g = Gen.path 5 in
  let sched = Schedule.make g in
  (* tree arc of node d is d -> d-1 at depth d; give it slot d so the
     shallowest arc fires first in every frame (worst case) *)
  for d = 1 to 4 do
    Schedule.set sched (Arc.make g d (d - 1)) d
  done;
  Greedy.extend sched (List.init (Arc.count g) Fun.id);
  assert (Schedule.valid sched);
  let packets = [| 0; 0; 0; 0; 1 |] in
  let before = Tdma.convergecast g sched ~sink:0 ~packets ~max_frames:100 in
  let ordered = Tdma.order_slots_for_convergecast g sched ~sink:0 in
  Alcotest.(check bool) "still valid" true (Schedule.valid ordered);
  Alcotest.(check int) "same slot count" (Schedule.num_slots sched)
    (Schedule.num_slots ordered);
  let after = Tdma.convergecast g ordered ~sink:0 ~packets ~max_frames:100 in
  Alcotest.(check int) "anti-ordered walks one hop per frame" 4 before.Tdma.frames;
  Alcotest.(check int) "ordered rides the whole path in one frame" 1 after.Tdma.frames

let prop_slot_ordering_never_hurts =
  qtest "slot ordering preserves validity and never adds frames" ~count:30
    (arb_connected ()) (fun g ->
      let sched = (Dfs_sched.run g).Dfs_sched.schedule in
      let ordered = Tdma.order_slots_for_convergecast g sched ~sink:0 in
      let packets = Array.make (Graph.n g) 1 in
      let before = Tdma.convergecast g sched ~sink:0 ~packets ~max_frames:100_000 in
      let after = Tdma.convergecast g ordered ~sink:0 ~packets ~max_frames:100_000 in
      Schedule.valid ordered && after.Tdma.frames <= before.Tdma.frames)

let test_link_vs_broadcast_energy () =
  (* the introduction's claim: link scheduling conserves receiver energy
     because only intended receivers listen *)
  let g, _ = Gen.udg (rng ()) ~n:60 ~side:6. ~radius:1.5 in
  if Traversal.is_connected g then begin
    let sched = (Dfs_sched.run g).Dfs_sched.schedule in
    let packets = Array.make (Graph.n g) 1 in
    let link = Tdma.convergecast g sched ~sink:0 ~packets ~max_frames:100_000 in
    let bcast = Tdma.broadcast_convergecast g ~sink:0 ~packets ~max_frames:100_000 in
    Alcotest.(check int) "same delivery" link.Tdma.delivered bcast.Tdma.delivered;
    Alcotest.(check bool)
      (Printf.sprintf "link rx (%d) <= broadcast rx (%d)" link.Tdma.rx_slots bcast.Tdma.rx_slots)
      true
      (link.Tdma.rx_slots <= bcast.Tdma.rx_slots)
  end

(* ------------------------------------------------------------------ *)
(* Single-event repair through the service                             *)
(* ------------------------------------------------------------------ *)

(* A 3x3 grid under the service with refine off: the raw local repair
   that Churn and bench ablation E measure. *)
let grid_service () =
  Service.create ~refine:false (Dfs_sched.run (Gen.grid 3 3)).Dfs_sched.schedule

let apply svc ev = (Service.apply svc [ ev ]).Service.b_recolored
let service_valid svc = Schedule.valid (Service.schedule svc)

let test_repair_roundtrip () =
  let svc = grid_service () in
  Alcotest.(check bool) "starts valid" true (service_valid svc);
  Alcotest.(check int) "nodes" 9 (Service.nodes svc)

let test_repair_add_node () =
  let svc = grid_service () in
  Alcotest.(check int) "only the new arcs touched" 4
    (apply svc (Service.Join { node = 9; neighbors = [ 0; 4 ] }));
  Alcotest.(check bool) "fresh id" true (Service.alive svc 9);
  Alcotest.(check bool) "still valid" true (service_valid svc)

let test_repair_remove_node () =
  let svc = grid_service () in
  Alcotest.(check int) "nothing recolored" 0 (apply svc (Service.Leave 4));
  Alcotest.(check bool) "still valid" true (service_valid svc);
  Alcotest.(check int) "ghost keeps id space" 9 (Service.nodes svc);
  Alcotest.(check int) "links gone" 0 (Graph.degree (Service.graph svc) 4)

(* A new link {u, v} is a move of [u] onto its neighbors plus [v]. *)
let test_repair_edges () =
  let svc = grid_service () in
  let nbrs = Array.to_list (Graph.neighbors (Service.graph svc) 0) in
  Alcotest.(check int) "only the mover's arcs" 6
    (apply svc (Service.Move { node = 0; neighbors = 8 :: nbrs }));
  Alcotest.(check bool) "link added" true (Graph.mem_edge (Service.graph svc) 0 8);
  Alcotest.(check bool) "valid after add" true (service_valid svc);
  Alcotest.(check int) "degrade recolors nothing" 0
    (apply svc (Service.Degrade { u = 0; v = 8 }));
  Alcotest.(check bool) "valid after remove" true (service_valid svc);
  Alcotest.check_raises "double remove"
    (Invalid_argument "Service: degrade names a missing link {0,8}") (fun () ->
      ignore (apply svc (Service.Degrade { u = 0; v = 8 })))

let test_repair_move () =
  let svc = grid_service () in
  Alcotest.(check int) "four arcs" 4
    (apply svc (Service.Move { node = 8; neighbors = [ 0; 1 ] }));
  Alcotest.(check bool) "valid" true (service_valid svc);
  let g = Service.graph svc in
  Alcotest.(check bool) "new link" true (Graph.mem_edge g 8 0);
  Alcotest.(check bool) "old link gone" false (Graph.mem_edge g 8 7)

let prop_repair_random_churn =
  qtest "random churn keeps the schedule valid" ~count:30 (arb_connected ()) (fun g ->
      let svc = Service.create ~refine:false (Dfs_sched.run g).Dfs_sched.schedule in
      Generators.single_event_churn (rng ()) svc ~steps:15;
      true)

let test_repair_drift_measurable () =
  let svc = grid_service () in
  for i = 0 to 5 do
    ignore (apply svc (Service.Join { node = 9 + i; neighbors = [ i; i + 1 ] }))
  done;
  let patched = Service.num_slots svc in
  let fresh = Schedule.num_slots (Dfs_sched.run (Service.graph svc)).Dfs_sched.schedule in
  Alcotest.(check bool)
    (Printf.sprintf "patched (%d) >= fresh (%d) - sanity" patched fresh)
    true (patched >= fresh - 1)

(* ------------------------------------------------------------------ *)
(* Distributed local repair (Local_update)                             *)
(* ------------------------------------------------------------------ *)

(* A valid partial schedule of [g] leaving the arcs incident to [nodes]
   uncolored. *)
let schedule_without g nodes =
  let sched = Schedule.make g in
  let excluded a = List.exists (fun v -> Arc.tail g a = v || Arc.head g a = v) nodes in
  let arcs = List.filter (fun a -> not (excluded a)) (List.init (Arc.count g) Fun.id) in
  Greedy.extend sched arcs;
  assert (Schedule.valid_partial sched);
  sched

let test_local_join () =
  (* node 5 "joins" a wheel-ish graph: its arcs start uncolored *)
  let g = Graph.create ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (5, 0); (5, 2) ] in
  let sched = schedule_without g [ 5 ] in
  let patched, stats = Local_update.join g sched ~node:5 in
  Alcotest.(check bool) "complete" true (Schedule.is_complete patched);
  Alcotest.(check bool) "valid" true (Schedule.valid patched);
  Alcotest.(check bool) "constant time" true (stats.Fdlsp_sim.Stats.rounds <= 10);
  (* untouched arcs keep their colors *)
  Alcotest.(check int) "old arcs preserved" (Schedule.get sched (Arc.make g 0 1))
    (Schedule.get patched (Arc.make g 0 1))

let test_local_add_link () =
  (* schedule a cycle, then add a chord; its arcs are uncolored and the
     new adjacency may invalidate old arcs - the protocol repairs both *)
  let base = Gen.cycle 8 in
  let base_sched = (Dfs_sched.run base).Dfs_sched.schedule in
  let g = Graph.create ~n:8 ((0, 4) :: Array.to_list (Graph.edges base)) in
  let sched = Schedule.make g in
  (* carry colors over by endpoints *)
  Graph.iter_edges base (fun _ u v ->
      Schedule.set sched (Arc.make g u v) (Schedule.get base_sched (Arc.make base u v));
      Schedule.set sched (Arc.make g v u) (Schedule.get base_sched (Arc.make base v u)));
  let patched, stats = Local_update.add_link g sched 0 4 in
  Alcotest.(check bool) "complete" true (Schedule.is_complete patched);
  Alcotest.(check bool) "valid" true (Schedule.valid patched);
  Alcotest.(check bool) "constant time" true (stats.Fdlsp_sim.Stats.rounds <= 16)

let test_local_refresh_rejects () =
  let g = Gen.path 4 in
  Alcotest.check_raises "non-neighbor target"
    (Invalid_argument "Local_update.refresh: target is not a coordinator neighbor")
    (fun () ->
      ignore (Local_update.refresh g (Greedy.color g) ~coordinator:0 ~targets:[ 3 ]))

let prop_local_join_valid =
  qtest "protocol join keeps schedules valid" ~count:40 (arb_connected ()) (fun g ->
      (* treat the max-id node as the newcomer *)
      let v = Graph.n g - 1 in
      let sched = schedule_without g [ v ] in
      let patched, _ = Local_update.join g sched ~node:v in
      Schedule.is_complete patched && Schedule.valid patched)

let prop_local_add_link_valid =
  qtest "protocol link addition keeps schedules valid" ~count:40 (arb_connected ())
    (fun g ->
      (* find a non-edge to add; skip complete graphs *)
      let n = Graph.n g in
      let pair = ref None in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if !pair = None && not (Graph.mem_edge g u v) then pair := Some (u, v)
        done
      done;
      match !pair with
      | None -> true
      | Some (u, v) ->
          let g' = Graph.create ~n ((u, v) :: Array.to_list (Graph.edges g)) in
          let old_sched = Greedy.color g in
          let sched = Schedule.make g' in
          Graph.iter_edges g (fun _ a b ->
              Schedule.set sched (Arc.make g' a b) (Schedule.get old_sched (Arc.make g a b));
              Schedule.set sched (Arc.make g' b a) (Schedule.get old_sched (Arc.make g b a)));
          let patched, _ = Local_update.add_link g' sched u v in
          Schedule.is_complete patched && Schedule.valid patched)

(* Differential: the distributed protocol and the batched service
   repair the same seeded stream of joins and moves, one event at a
   time, and must land on the same topology with both schedules
   complete and Definition-2 valid after every event.  A moved node's
   arcs are blank on the protocol side, exactly like a joiner's: every
   new adjacency runs through the mover, so [join] covers both. *)
let prop_local_vs_service =
  qtest "protocol and service agree on join/move streams" ~count:30
    QCheck2.Gen.(pair (arb_connected ()) (int_bound 9999))
    (fun (g0, seed) ->
      let r = Random.State.make [| 0x10CA1; seed |] in
      let svc = Service.create (Greedy.color g0) in
      let g = ref g0 and sched = ref (Greedy.color g0) in
      let ok = ref true in
      for _ = 1 to 12 do
        let n = Graph.n !g in
        let node = if Random.State.bool r then n else Random.State.int r n in
        let nbrs =
          List.init (1 + Random.State.int r 3) (fun _ -> Random.State.int r n)
          |> List.filter (fun w -> w <> node)
          |> List.sort_uniq compare
        in
        let ev =
          if node = n then Service.Join { node; neighbors = nbrs }
          else Service.Move { node; neighbors = nbrs }
        in
        ignore (Service.apply svc [ ev ]);
        let kept =
          List.filter (fun (u, v) -> u <> node && v <> node) (Array.to_list (Graph.edges !g))
        in
        let g' = Graph.create ~n:(max n (node + 1)) (List.map (fun w -> (node, w)) nbrs @ kept) in
        let blank = Schedule.make g' in
        List.iter
          (fun (u, v) ->
            Schedule.set blank (Arc.make g' u v) (Schedule.get !sched (Arc.make !g u v));
            Schedule.set blank (Arc.make g' v u) (Schedule.get !sched (Arc.make !g v u)))
          kept;
        let patched, _ = Local_update.join g' blank ~node in
        g := g';
        sched := patched;
        if
          not
            (Graph.edges (Service.graph svc) = Graph.edges g'
            && Schedule.is_complete patched && Schedule.valid patched
            && Schedule.valid (Service.schedule svc))
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "fdlsp_ext"
    [
      ( "randomized",
        [
          Alcotest.test_case "cycle" `Quick test_randomized_basic;
          Alcotest.test_case "edgeless" `Quick test_randomized_edgeless;
          Alcotest.test_case "longer than DFS on average" `Slow test_randomized_longer_than_dfs;
          prop_randomized_valid;
          prop_randomized_windows;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "shapes" `Quick test_broadcast_shapes;
          Alcotest.test_case "invalid detected" `Quick test_broadcast_invalid_detected;
          Alcotest.test_case "distributed on star" `Quick test_broadcast_distributed_star;
          prop_broadcast_valid;
          prop_broadcast_at_most_d2;
          prop_broadcast_distributed_valid;
          prop_broadcast_distributed_bound;
        ] );
      ( "tdma",
        [
          Alcotest.test_case "corrupted schedule collides" `Quick test_corrupted_schedule_collides;
          Alcotest.test_case "convergecast on a path" `Quick test_convergecast_path;
          Alcotest.test_case "unreachable source" `Quick test_convergecast_unreachable;
          Alcotest.test_case "frame budget" `Quick test_convergecast_frame_budget;
          Alcotest.test_case "link vs broadcast energy" `Quick test_link_vs_broadcast_energy;
          Alcotest.test_case "slot ordering on a path" `Quick test_slot_ordering_path;
          prop_valid_schedule_no_collisions;
          prop_convergecast_delivers;
          prop_slot_ordering_never_hurts;
        ] );
      ( "repair",
        [
          Alcotest.test_case "roundtrip" `Quick test_repair_roundtrip;
          Alcotest.test_case "add node" `Quick test_repair_add_node;
          Alcotest.test_case "remove node" `Quick test_repair_remove_node;
          Alcotest.test_case "edges" `Quick test_repair_edges;
          Alcotest.test_case "move node" `Quick test_repair_move;
          Alcotest.test_case "slot drift" `Quick test_repair_drift_measurable;
          prop_repair_random_churn;
        ] );
      ( "local_update",
        [
          Alcotest.test_case "protocol join" `Quick test_local_join;
          Alcotest.test_case "protocol link addition" `Quick test_local_add_link;
          Alcotest.test_case "rejects bad targets" `Quick test_local_refresh_rejects;
          prop_local_join_valid;
          prop_local_add_link_valid;
          prop_local_vs_service;
        ] );
    ]
