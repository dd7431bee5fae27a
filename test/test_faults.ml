(* Tests for the fault-injection layer: plan validation, engine-level
   fault semantics, the reliable (ARQ) layer, end-to-end scheduling
   under loss, and crash/repair churn. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Fault: drop rate 1.5 outside [0, 1]") (fun () ->
      ignore (Fault.lossy 1.5));
  Alcotest.check_raises "negative duplicate"
    (Invalid_argument "Fault: duplicate rate -0.1 outside [0, 1]") (fun () ->
      ignore (Fault.lossy ~duplicate:(-0.1) 0.));
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Alcotest.(check bool) "uniform 0.1 is not none" false
    (Fault.is_none (Fault.uniform 0.1));
  Alcotest.(check bool) "all-zero uniform plan is none" true
    (Fault.is_none (Fault.uniform 0.))

let test_crash_windows () =
  let plan =
    Fault.make
      ~crashes:
        [
          { Fault.node = 1; at = 3.; until = Some 6. };
          { Fault.node = 2; at = 1.; until = None };
        ]
      ()
  in
  let s = Fault.start plan in
  Alcotest.(check bool) "before window" false (Fault.crashed s 1 2.);
  Alcotest.(check bool) "inside window" true (Fault.crashed s 1 4.);
  Alcotest.(check bool) "after recovery" false (Fault.crashed s 1 7.);
  Alcotest.(check bool) "recovering node not dead forever" false
    (Fault.dead_forever s 1 4.);
  Alcotest.(check bool) "no-recovery node dead forever" true
    (Fault.dead_forever s 2 5.);
  (* crashes are reported sorted by time *)
  match Fault.crashes plan with
  | [ a; b ] ->
      Alcotest.(check int) "first crash" 2 a.Fault.node;
      Alcotest.(check int) "second crash" 1 b.Fault.node
  | _ -> Alcotest.fail "expected two crash windows"

(* ------------------------------------------------------------------ *)
(* Synchronous engine under faults                                     *)
(* ------------------------------------------------------------------ *)

let test_sync_drop_all () =
  let g = Gen.cycle 6 in
  let step ~round v st inbox =
    if round = 1 then
      (st, Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, ()) :: acc) []))
    else (List.length inbox, Sync.Halt [])
  in
  let faults = Fault.uniform 1.0 in
  let states, stats = Sync.run ~faults g ~init:(fun _ -> (0, true)) ~step in
  Alcotest.(check int) "nothing delivered" 0 (Array.fold_left ( + ) 0 states);
  Alcotest.(check int) "all sends counted" (2 * Graph.m g) stats.Stats.messages;
  Alcotest.(check int) "all sends dropped" (2 * Graph.m g) stats.Stats.dropped

let test_sync_duplicate_all () =
  let g = Gen.cycle 6 in
  let step ~round v st inbox =
    if round = 1 then
      (st, Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, ()) :: acc) []))
    else (List.length inbox, Sync.Halt [])
  in
  let faults = Fault.make ~default_link:(Fault.lossy ~duplicate:1.0 0.) () in
  let states, stats = Sync.run ~faults g ~init:(fun _ -> (0, true)) ~step in
  Alcotest.(check int) "every message doubled" (2 * 2 * Graph.m g)
    (Array.fold_left ( + ) 0 states);
  Alcotest.(check int) "duplicates counted" (2 * Graph.m g) stats.Stats.duplicated

let test_sync_reorder_delays_one_round () =
  (* a reordered copy arrives one round late instead of vanishing *)
  let g = Gen.path 2 in
  let step ~round v st inbox =
    let st = st + List.length inbox in
    if round = 1 then
      (st, Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, ()) :: acc) []))
    else if round <= 3 then (st, Sync.Continue [])
    else (st, Sync.Halt [])
  in
  let faults = Fault.make ~default_link:(Fault.lossy ~reorder:1.0 0.) () in
  let states, stats = Sync.run ~faults g ~init:(fun _ -> (0, true)) ~step in
  Alcotest.(check int) "all copies eventually arrive" 2 (Array.fold_left ( + ) 0 states);
  Alcotest.(check int) "nothing dropped" 0 stats.Stats.dropped

let test_sync_crash_window () =
  (* node 1 of a path is down for rounds 2-3: messages to it vanish, it
     does not step, and it resumes with its pre-crash state *)
  let g = Gen.path 3 in
  let step ~round v st inbox =
    let st = st + List.length inbox in
    if round >= 5 then (st, Sync.Halt [])
    else (st, Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, ()) :: acc) []))
  in
  let run faults = Sync.run ?faults g ~init:(fun _ -> (0, true)) ~step in
  let clean, _ = run None in
  let faulty, stats =
    run (Some (Fault.make ~crashes:[ { Fault.node = 1; at = 2.; until = Some 4. } ] ()))
  in
  Alcotest.(check int) "run terminates on time" 5 stats.Stats.rounds;
  Alcotest.(check bool) "crashed node missed messages" true (faulty.(1) < clean.(1));
  Alcotest.(check bool) "neighbors missed its sends" true (faulty.(0) < clean.(0));
  Alcotest.(check bool) "drops counted" true (stats.Stats.dropped > 0)

let test_sync_determinism () =
  let g = Gen.gnp (Random.State.make [| 3 |]) ~n:20 ~p:0.2 in
  let step ~round v st inbox =
    let st = st + List.fold_left (fun acc (w, x) -> acc + w + x) 0 inbox in
    if round >= 4 then (st, Sync.Halt [])
    else (st, Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, v + round) :: acc) []))
  in
  let faults = Fault.uniform ~seed:9 ~duplicate:0.1 ~reorder:0.1 0.2 in
  let run () = Sync.run ~faults g ~init:(fun _ -> (0, true)) ~step in
  let s1, st1 = run () and s2, st2 = run () in
  Alcotest.(check bool) "states identical" true (s1 = s2);
  Alcotest.(check bool) "stats identical" true (st1 = st2)

(* ------------------------------------------------------------------ *)
(* Reliable synchronous layer                                          *)
(* ------------------------------------------------------------------ *)

(* Leader election by max-id flooding — the reference protocol for
   state equivalence across engines. *)
let max_flood g =
  let diam = Traversal.diameter g in
  let step ~round v best inbox =
    let best = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
    let out = Graph.fold_neighbors g v (fun acc w -> (w, best) :: acc) [] in
    if round > diam then (best, Sync.Halt []) else (best, Sync.Continue out)
  in
  ((fun v -> (v, true)), step)

let test_reliable_equals_raw_when_faultless () =
  let g = Gen.cycle 9 in
  let init, step = max_flood g in
  let s_raw, st_raw = Sync.run g ~init ~step in
  let s_rel, st_rel = Reliable.run_sync g ~init ~step in
  Alcotest.(check bool) "identical states" true (s_raw = s_rel);
  Alcotest.(check int) "identical logical rounds" st_raw.Stats.rounds st_rel.Stats.rounds

let test_reliable_masks_loss () =
  let g = Gen.cycle 9 in
  let init, step = max_flood g in
  let s_raw, _ = Sync.run g ~init ~step in
  let faults = Fault.uniform ~seed:4 ~duplicate:0.1 ~reorder:0.1 ~corrupt:0.05 0.2 in
  let s_rel, st = Reliable.run_sync ~faults g ~init ~step in
  Alcotest.(check bool) "same answer under 20% loss" true (s_raw = s_rel);
  Alcotest.(check bool) "loss actually happened" true (st.Stats.dropped > 0);
  Alcotest.(check bool) "retransmissions recovered it" true (st.Stats.retransmits > 0)

let test_reliable_determinism () =
  let g = Gen.gnp (Random.State.make [| 5 |]) ~n:16 ~p:0.25 in
  let init, step = max_flood g in
  let faults = Fault.uniform ~seed:11 ~reorder:0.15 0.25 in
  let s1, st1 = Reliable.run_sync ~faults g ~init ~step in
  let s2, st2 = Reliable.run_sync ~faults g ~init ~step in
  Alcotest.(check bool) "states identical" true (s1 = s2);
  Alcotest.(check bool) "stats identical" true (st1 = st2)

let test_reliable_runner_dispatch () =
  Alcotest.(check bool) "empty plan gives the raw engine" false
    (Reliable.runner ~faults:Fault.none ()).Reliable.faulty;
  Alcotest.(check bool) "lossy plan gives the reliable engine" true
    (Reliable.runner ~faults:(Fault.uniform 0.1) ()).Reliable.faulty

let test_reliable_stalls_on_dead_node () =
  (* a permanently crashed node is not masked by ARQ: the run aborts *)
  let g = Gen.path 3 in
  let init, step = max_flood g in
  let faults = Fault.make ~crashes:[ { Fault.node = 1; at = 0.; until = None } ] () in
  Alcotest.check_raises "stalls" (Sync.Did_not_terminate 60) (fun () ->
      ignore (Reliable.run_sync ~max_rounds:60 ~faults g ~init ~step))

(* ------------------------------------------------------------------ *)
(* Asynchronous engine: faults and ARQ                                 *)
(* ------------------------------------------------------------------ *)

let relay_starts = [ (0, fun ctx s -> Async.send ctx 1 0; s) ]

(* numbered relay along a path; every node records what it saw *)
let relay_handler n ctx state ~sender:_ k =
  let v = Async.self ctx in
  if v < n - 1 then Async.send ctx (v + 1) (k + 1);
  k :: state

let test_async_arq_masks_loss () =
  let n = 6 in
  let g = Gen.path n in
  let faults = Fault.uniform ~seed:2 ~duplicate:0.2 ~reorder:0.2 0.3 in
  let states, st =
    Async.run ~faults ~reliable:Reliable.default g
      ~init:(fun _ -> [])
      ~starts:relay_starts ~handler:(relay_handler n)
  in
  for v = 1 to n - 1 do
    Alcotest.(check (list int)) "delivered exactly once, in order" [ v - 1 ] states.(v)
  done;
  Alcotest.(check bool) "loss occurred" true (st.Stats.dropped > 0);
  Alcotest.(check bool) "retransmissions occurred" true (st.Stats.retransmits > 0)

let test_async_arq_dedups_duplicates () =
  let n = 4 in
  let g = Gen.path n in
  let faults = Fault.make ~default_link:(Fault.lossy ~duplicate:1.0 0.) () in
  let states, st =
    Async.run ~faults ~reliable:Reliable.default g
      ~init:(fun _ -> [])
      ~starts:relay_starts ~handler:(relay_handler n)
  in
  for v = 1 to n - 1 do
    Alcotest.(check (list int)) "no duplicate delivery" [ v - 1 ] states.(v)
  done;
  Alcotest.(check bool) "duplicates were injected" true (st.Stats.duplicated > 0)

let test_async_fifo_under_reorder_with_arq () =
  (* 15 numbered messages over one reordering channel; ARQ restores order *)
  let g = Gen.path 2 in
  let handler _ state ~sender:_ k =
    (match state with
    | prev :: _ when k <= prev -> Alcotest.fail "order violated"
    | _ -> ());
    k :: state
  in
  let starts =
    [ (0, fun ctx s -> List.iter (fun k -> Async.send ctx 1 k) (List.init 15 Fun.id); s) ]
  in
  let faults = Fault.uniform ~seed:8 ~reorder:0.5 0.2 in
  let states, _ =
    Async.run ~faults ~reliable:Reliable.default g
      ~init:(fun _ -> [])
      ~starts ~handler
  in
  Alcotest.(check int) "all delivered" 15 (List.length states.(1))

let test_async_determinism () =
  let n = 6 in
  let g = Gen.path n in
  let faults = Fault.uniform ~seed:13 ~duplicate:0.15 ~reorder:0.15 0.25 in
  let run () =
    Async.run ~faults ~reliable:Reliable.default g
      ~init:(fun _ -> [])
      ~starts:relay_starts ~handler:(relay_handler n)
  in
  let s1, st1 = run () and s2, st2 = run () in
  Alcotest.(check bool) "states identical" true (s1 = s2);
  Alcotest.(check bool) "stats identical" true (st1 = st2)

(* ------------------------------------------------------------------ *)
(* End-to-end: schedulers under loss (the acceptance criteria)         *)
(* ------------------------------------------------------------------ *)

let check_valid name sched =
  match Schedule.validate sched with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "%s produced an invalid schedule: %a" name
        (Schedule.pp_violation (Schedule.graph sched))
        v

let graphs () =
  [
    ("udg", fst (Gen.udg (Random.State.make [| 21 |]) ~n:30 ~side:5. ~radius:1.));
    ("gnp", Gen.gnp (Random.State.make [| 22 |]) ~n:30 ~p:0.12);
  ]

let test_dfs_under_loss () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun drop ->
          let faults = Fault.uniform ~seed:31 ~duplicate:0.1 drop in
          let r = Dfs_sched.run ~faults g in
          check_valid (Printf.sprintf "dfs/%s/drop=%g" gname drop) r.Dfs_sched.schedule;
          Alcotest.(check bool)
            (Printf.sprintf "dfs/%s/drop=%g retransmitted" gname drop)
            true
            (r.Dfs_sched.stats.Stats.retransmits > 0))
        [ 0.1; 0.3 ])
    (graphs ())

let test_distmis_under_loss () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun drop ->
          let faults = Fault.uniform ~seed:37 drop in
          let r =
            Dist_mis.run ~faults ~mis:(Mis.Luby (Random.State.make [| 41 |]))
              ~variant:Dist_mis.Gbg g
          in
          check_valid
            (Printf.sprintf "distmis/%s/drop=%g" gname drop)
            r.Dist_mis.schedule;
          Alcotest.(check bool)
            (Printf.sprintf "distmis/%s/drop=%g retransmitted" gname drop)
            true
            (r.Dist_mis.stats.Stats.retransmits > 0))
        [ 0.1; 0.3 ])
    (graphs ())

let test_gps_rejects_faults () =
  let g = Gen.cycle 5 in
  Alcotest.check_raises "gps + faults"
    (Invalid_argument "Mis.compute: the GPS pipeline does not support fault injection")
    (fun () ->
      ignore (Dist_mis.run ~faults:(Fault.uniform 0.1) ~mis:Mis.Gps ~variant:Dist_mis.Gbg g))

(* ------------------------------------------------------------------ *)
(* Crash/repair churn                                                  *)
(* ------------------------------------------------------------------ *)

let test_churn_driver () =
  let g = fst (Gen.udg (Random.State.make [| 51 |]) ~n:25 ~side:4. ~radius:1.) in
  let sched = (Dfs_sched.run g).Dfs_sched.schedule in
  let plan =
    Fault.make
      ~crashes:
        [
          { Fault.node = 3; at = 1.; until = Some 4. };
          { Fault.node = 7; at = 2.; until = None };
          { Fault.node = 11; at = 3.; until = Some 5. };
        ]
      ()
  in
  let r = Churn.run sched plan in
  Alcotest.(check int) "five events (two recoveries)" 5 (List.length r.Churn.events);
  List.iter
    (fun (e : Churn.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "valid after t=%g" e.Churn.time)
        true e.Churn.valid)
    r.Churn.events;
  List.iter
    (fun (e : Churn.event) ->
      match e.Churn.kind with
      | Churn.Crash -> Alcotest.(check int) "crashes recolor nothing" 0 e.Churn.recolored
      | Churn.Recover -> ())
    r.Churn.events;
  Alcotest.(check bool) "json mentions events" true
    (String.length (Churn.report_to_json r) > 0);
  (* the report embeds the fault-plan metadata for reproducibility *)
  Alcotest.(check int) "plan crashes recorded" 3 r.Churn.plan_crashes;
  Alcotest.(check int) "plan blips recorded" 0 r.Churn.plan_blips;
  Alcotest.(check int) "plan seed recorded" 0 r.Churn.plan_seed;
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json embeds the plan" true
    (contains (Churn.report_to_json r) {|"plan":{"seed":0,"crashes":3,"blips":0}|});
  (* replaying the same plan is deterministic *)
  let r2 = Churn.run sched plan in
  Alcotest.(check bool) "deterministic" true (r = r2)

let test_churn_overlapping_windows_collapse () =
  let g = Gen.cycle 6 in
  let sched = (Dfs_sched.run g).Dfs_sched.schedule in
  let plan =
    Fault.make
      ~crashes:
        [
          { Fault.node = 2; at = 1.; until = Some 10. };
          { Fault.node = 2; at = 3.; until = Some 5. };
        ]
      ()
  in
  let r = Churn.run sched plan in
  (* second crash of a dead node and first recovery of a dead node are
     ignored: crash@1, recover@5 survive; the (ignored) crash@3 and the
     recover@10 of an already-alive node collapse *)
  Alcotest.(check int) "collapsed to one crash + one recovery" 2
    (List.length r.Churn.events)

(* Churn routes through the service coalescer, so replaying the report's
   effective events through a bare refine-free Service must reproduce the
   repair-op counts exactly — `fdlsp faults` and `bench serve` agree. *)
let test_churn_service_reconcile () =
  let g = fst (Gen.udg (Random.State.make [| 52 |]) ~n:25 ~side:4. ~radius:1.) in
  let sched = (Dfs_sched.run g).Dfs_sched.schedule in
  let plan =
    Fault.make
      ~crashes:
        [
          { Fault.node = 2; at = 1.; until = Some 5. };
          { Fault.node = 9; at = 2.; until = Some 4. };
          { Fault.node = 14; at = 3.; until = None };
        ]
      ()
  in
  let r = Churn.run sched plan in
  let svc = Service.create ~refine:false sched in
  let original = Array.init (Graph.n g) (fun v -> Graph.neighbors g v) in
  let total =
    List.fold_left
      (fun acc (e : Churn.event) ->
        let b =
          match e.Churn.kind with
          | Churn.Crash -> Service.apply svc [ Service.Leave e.Churn.node ]
          | Churn.Recover ->
              let nbrs =
                List.filter (Service.alive svc)
                  (Array.to_list original.(e.Churn.node))
              in
              Service.apply svc
                [ Service.Move { node = e.Churn.node; neighbors = nbrs } ]
        in
        Alcotest.(check int)
          (Printf.sprintf "recolored agrees at t=%g" e.Churn.time)
          e.Churn.recolored b.Service.b_recolored;
        Alcotest.(check int)
          (Printf.sprintf "slots agree at t=%g" e.Churn.time)
          e.Churn.slots b.Service.b_slots;
        acc + b.Service.b_recolored)
      0 r.Churn.events
  in
  Alcotest.(check int) "total recolored agrees" r.Churn.total_recolored total;
  Alcotest.(check int) "final slots agree" r.Churn.final_slots
    (Service.num_slots svc);
  Alcotest.(check bool) "final schedule valid" true
    (Schedule.valid (Service.schedule svc))

(* Randomized single-event churn through the service on UDG and G(n,p):
   the schedule must validate after every step and ghost ids must stay
   stable. *)
let test_repair_random_churn () =
  List.iter
    (fun (gname, g) ->
      let svc = Service.create ~refine:false (Dfs_sched.run g).Dfs_sched.schedule in
      try Generators.single_event_churn (Random.State.make [| 61 |]) svc ~steps:40
      with Failure msg -> Alcotest.failf "%s %s" gname msg)
    [
      ("udg", fst (Gen.udg (Random.State.make [| 71 |]) ~n:20 ~side:4. ~radius:1.2));
      ("gnp", Gen.gnp (Random.State.make [| 72 |]) ~n:20 ~p:0.15);
    ]

(* The same over arbitrary connected graphs and seeds. *)
let prop_repair_interleavings =
  Generators.qtest "arbitrary repair interleavings keep the schedule valid" ~count:40
    QCheck2.Gen.(pair (Generators.arb_connected ~max_n:12 ()) (int_bound 9999))
    (fun (g, seed) ->
      let svc = Service.create ~refine:false (Dfs_sched.run g).Dfs_sched.schedule in
      Generators.single_event_churn (Random.State.make [| 0xC480; seed |]) svc ~steps:25;
      true)

let () =
  Alcotest.run "fdlsp_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "rate validation" `Quick test_plan_validation;
          Alcotest.test_case "crash windows" `Quick test_crash_windows;
        ] );
      ( "sync",
        [
          Alcotest.test_case "drop all" `Quick test_sync_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_sync_duplicate_all;
          Alcotest.test_case "reorder delays one round" `Quick
            test_sync_reorder_delays_one_round;
          Alcotest.test_case "crash window" `Quick test_sync_crash_window;
          Alcotest.test_case "determinism" `Quick test_sync_determinism;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "faultless = raw engine" `Quick
            test_reliable_equals_raw_when_faultless;
          Alcotest.test_case "masks 20% loss" `Quick test_reliable_masks_loss;
          Alcotest.test_case "determinism" `Quick test_reliable_determinism;
          Alcotest.test_case "runner dispatch" `Quick test_reliable_runner_dispatch;
          Alcotest.test_case "dead node stalls" `Quick test_reliable_stalls_on_dead_node;
        ] );
      ( "async",
        [
          Alcotest.test_case "arq masks loss" `Quick test_async_arq_masks_loss;
          Alcotest.test_case "arq dedups duplicates" `Quick
            test_async_arq_dedups_duplicates;
          Alcotest.test_case "fifo under reorder" `Quick
            test_async_fifo_under_reorder_with_arq;
          Alcotest.test_case "determinism" `Quick test_async_determinism;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "dfs valid at 10% and 30% loss" `Quick test_dfs_under_loss;
          Alcotest.test_case "distmis valid at 10% and 30% loss" `Quick
            test_distmis_under_loss;
          Alcotest.test_case "gps rejects faults" `Quick test_gps_rejects_faults;
        ] );
      ( "churn",
        [
          Alcotest.test_case "crash/recover driver" `Quick test_churn_driver;
          Alcotest.test_case "overlapping windows collapse" `Quick
            test_churn_overlapping_windows_collapse;
          Alcotest.test_case "reconciles with the service" `Quick
            test_churn_service_reconcile;
          Alcotest.test_case "randomized repair churn" `Quick test_repair_random_churn;
          prop_repair_interleavings;
        ] );
    ]
