(* The domain-parallel engine's whole contract is bit-identity with the
   sequential engine on fault-free, untraced runs: same final states and
   stats for every shard count and graph family.  Faulty and traced runs
   are the runner's job to route to the sequential engine; the routing
   property holds it to giving exactly what Reliable.runner gives. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core

let qtest name ?(count = 40) arb prop = Generators.qtest name ~count arb prop

(* --- partitions ----------------------------------------------------- *)

let ring n = Graph.create ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let test_partition_bfs_path () =
  (* on a path, quota-bounded BFS growth from the smallest unassigned
     node is exactly contiguous intervals of ceil(n/parts) *)
  let g = Graph.create ~n:10 (List.init 9 (fun i -> (i, i + 1))) in
  let p = Partition.bfs_regions g ~parts:3 in
  Alcotest.(check (list int))
    "path regions are intervals"
    [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2 ]
    (Array.to_list p.Partition.part)

let test_partition_geometric () =
  let points =
    Array.init 9 (fun i ->
        { Geometry.x = float_of_int (8 - i); y = 0. } (* reversed strip order *))
  in
  let p = Partition.geometric points ~parts:3 in
  Alcotest.(check (list int))
    "strips follow x order, not id order"
    [ 2; 2; 2; 1; 1; 1; 0; 0; 0 ]
    (Array.to_list p.Partition.part)

let prop_partition_well_formed =
  qtest "of_graph covers every node with ascending shards" ~count:50
    (Generators.arb_gnp ~min_n:1 ~max_n:30 ())
    (fun g ->
      List.for_all
        (fun parts ->
          let p = Partition.of_graph g ~parts in
          let sh = Partition.shards p in
          let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 sh in
          let ascending s =
            Array.for_all Fun.id (Array.mapi (fun i v -> i = 0 || s.(i - 1) < v) s)
          in
          let cf = Partition.cut_fraction g p in
          Array.length p.Partition.part = Graph.n g
          && Array.for_all (fun s -> s >= 0 && s < parts) p.Partition.part
          && total = Graph.n g
          && Array.for_all ascending sh
          && cf >= 0. && cf <= 1.
          && p.Partition.part = (Partition.of_graph g ~parts).Partition.part)
        [ 1; 2; 5 ])

(* --- engine bit-identity -------------------------------------------- *)

(* Bounded gossip: every node floods the best id it has heard for a
   fixed number of rounds, then halts.  Termination does not depend on
   what the channel loses, so the same protocol exercises clean, lossy,
   crashing and blipped runs; the per-round broadcast keeps message
   (and cross-shard) traffic dense. *)
let ttl = 6

let gossip g =
  let init v = ((v, 0), true) in
  let step ~round v ((best, _) : int * int) inbox =
    let best = List.fold_left (fun acc (_, p) -> max acc p) best inbox in
    let state = (best, round) in
    if round >= ttl then (state, Sync.Halt [])
    else
      ( state,
        Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, best) :: acc) []) )
  in
  (init, step)

let prop_identical name arb =
  qtest ("Parallel(k) is bit-identical to Sync on " ^ name) ~count:10 arb (fun g ->
      let init, step = gossip g in
      let reference = Sync.run g ~init ~step in
      List.for_all
        (fun k -> Parallel.run ~domains:k g ~init ~step = reference)
        [ 1; 2; 4; 7 ])

let prop_gnp = prop_identical "gnp" (Generators.arb_gnp ~min_n:2 ~max_n:20 ())
let prop_udg = prop_identical "udg" (Generators.arb_udg ())
let prop_tree = prop_identical "trees" (Generators.arb_tree ~min_n:2 ~max_n:30 ())
let prop_connected = prop_identical "connected" (Generators.arb_connected ~max_n:20 ())

(* --- routing ---------------------------------------------------------- *)

let blip_hook b (best, r) = ((best + b.Fault.b_node) mod 97, r)

let blips g = Fault.scatter_blips ~seed:3 ~n:(Graph.n g) ~count:3 ~horizon:5 ()
let blip_plan g = Fault.make ~seed:7 ~blips:(blips g) ()

(* crash windows close: the ARQ layer does not mask a permanent crash,
   whose neighbours would wait for it forever *)
let crash_plan g =
  let n = Graph.n g in
  Fault.make ~seed:7
    ~crashes:
      [
        { Fault.node = 0; at = 2.; until = Some 4. };
        { Fault.node = n - 1; at = 3.; until = Some 6. };
      ]
    ~blips:(blips g) ()

let lossy_plan = Fault.uniform ~seed:5 ~duplicate:0.2 ~reorder:0.2 ~corrupt:0.1 0.25

(* runs the parallel engine does not take itself: tracing alone, a
   blip-only plan (raw Sync), a crash+blip plan with traces and a lossy
   plan (both ARQ) *)
let routed g =
  [ (Fault.none, true); (blip_plan g, false); (crash_plan g, true); (lossy_plan, false) ]

let run_runner make ~faults ~traced g =
  let trace = if traced then Trace.memory () else Trace.null in
  let init, step = gossip g in
  let engine : Reliable.sync_runner = make ~faults ~trace in
  let states, stats = engine.Reliable.run ~blip:blip_hook g ~init ~step in
  (states, stats, Trace.events trace, engine.Reliable.faulty)

let prop_routed name arb =
  qtest ("Parallel.runner routes faulty and traced runs like Reliable on " ^ name)
    ~count:10 arb (fun g ->
      List.for_all
        (fun (faults, traced) ->
          let reference =
            run_runner (fun ~faults ~trace -> Reliable.runner ~faults ~trace ()) ~faults
              ~traced g
          in
          List.for_all
            (fun k ->
              run_runner
                (fun ~faults ~trace ->
                  Parallel.runner ~faults ~trace ~threshold:0 ~domains:k ())
                ~faults ~traced g
              = reference)
            [ 1; 2; 4; 7 ])
        (routed g))

let prop_routed_gnp = prop_routed "gnp" (Generators.arb_gnp ~min_n:2 ~max_n:20 ())
let prop_routed_udg = prop_routed "udg" (Generators.arb_udg ())
let prop_routed_tree = prop_routed "trees" (Generators.arb_tree ~min_n:2 ~max_n:30 ())

let prop_routed_connected =
  prop_routed "connected" (Generators.arb_connected ~max_n:20 ())

let test_rejects_bad_args () =
  let g = ring 4 in
  let init, step = gossip g in
  Alcotest.check_raises "domains = 0" (Invalid_argument "Parallel.run: domains must be >= 1")
    (fun () -> ignore (Parallel.run ~domains:0 g ~init ~step))

let test_non_neighbor_send () =
  let g = ring 6 in
  let init v = (v, true) in
  let step ~round:_ v state _ = (state, Sync.Continue [ ((v + 2) mod 6, 0) ]) in
  Alcotest.check_raises "non-neighbor send"
    (Invalid_argument "Parallel.run: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Parallel.run ~domains:2 g ~init ~step))

(* --- observability at the terminal barrier --------------------------- *)

let test_metrics_merge () =
  let g = ring 16 in
  let init, step = gossip g in
  let run metrics domains =
    match domains with
    | None -> Sync.run ~metrics g ~init ~step
    | Some k -> Parallel.run ~metrics ~domains:k g ~init ~step
  in
  let reg_seq = Metrics.create () in
  let r0 = run (Metrics.sink reg_seq) None in
  let reg_par = Metrics.create () in
  let r1 = run (Metrics.sink reg_par) (Some 4) in
  Alcotest.(check bool) "same states and stats" true (r0 = r1);
  let hist reg engine =
    match Metrics.histogram ~labels:[ ("engine", engine) ] reg Metrics.Name.inbox_depth with
    | Some h -> (Metrics.Hist.count h, Metrics.Hist.sum h)
    | None -> (0, nan)
  in
  Alcotest.(check bool)
    "per-shard inbox-depth histograms merge to the sequential one" true
    (hist reg_seq "sync" = hist reg_par "parallel");
  let gauge name = Metrics.gauge_value reg_par name in
  Alcotest.(check (option (float 0.)))
    "shard-count gauge" (Some 4.)
    (gauge Metrics.Name.parallel_shards);
  (match gauge Metrics.Name.parallel_barrier_frac with
  | Some f -> Alcotest.(check bool) "barrier frac in [0,1]" true (f >= 0. && f <= 1.)
  | None -> Alcotest.fail "missing barrier-frac gauge");
  match gauge Metrics.Name.parallel_cut_frac with
  | Some f -> Alcotest.(check bool) "cut frac in [0,1]" true (f >= 0. && f <= 1.)
  | None -> Alcotest.fail "missing cut-frac gauge"

let test_spans () =
  let g = ring 16 in
  let init, step = gossip g in
  let spans = Span.recorder () in
  ignore (Parallel.run ~spans ~domains:3 g ~init ~step);
  let entries = Span.entries spans in
  (match Span.check_nesting ~require_closed:true entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let has name =
    Array.exists
      (function
        | Span.Begin { name = n; _ } | Span.Mark { name = n; _ } -> n = name
        | Span.End_ _ -> false)
      entries
  in
  List.iter
    (fun name -> Alcotest.(check bool) name true (has name))
    [ "parallel.run"; "parallel.round"; "parallel.compute"; "parallel.exchange";
      "parallel.shard-summary" ]

(* --- the engine under DistMIS ---------------------------------------- *)

let schedule_array g sched = Array.init (Arc.count g) (Schedule.get sched)

let prop_distmis_engine_free =
  qtest "DistMIS(Hashed) is engine-independent" ~count:8
    (Generators.arb_connected ~max_n:16 ())
    (fun g ->
      let run engine = Dist_mis.run ?engine ~mis:(Mis.Hashed 42) ~variant:Dist_mis.Gbg g in
      let r0 = run None in
      let r1 = run (Some (Parallel.runner ~threshold:0 ~domains:3 ())) in
      schedule_array g r0.Dist_mis.schedule = schedule_array g r1.Dist_mis.schedule
      && r0.Dist_mis.stats = r1.Dist_mis.stats
      && r0.Dist_mis.outer_iters = r1.Dist_mis.outer_iters
      && r0.Dist_mis.inner_iters = r1.Dist_mis.inner_iters
      && Schedule.valid r0.Dist_mis.schedule)

(* The property above stays below 16 nodes, where a scratch shared by
   the domains (a global forbidden-color array, say) almost never gets
   two color steps at once.  One fixed UDG above the parallel engine's
   2048-node threshold, with degree 8 like the bench's, steps thousands
   of winners per color phase on both domains. *)
let test_distmis_engine_free_large () =
  let n = 3000 in
  let side = sqrt (float_of_int n *. Float.pi /. 8.) in
  let g, _ = Gen.udg (Random.State.make [| 27 |]) ~n ~side ~radius:1. in
  let run engine = Dist_mis.run ?engine ~mis:(Mis.Hashed 7) ~variant:Dist_mis.Gbg g in
  let r0 = run None in
  let r1 = run (Some (Parallel.runner ~domains:2 ())) in
  Alcotest.(check bool) "valid" true (Schedule.valid r0.Dist_mis.schedule);
  Alcotest.(check (array int))
    "schedule" (schedule_array g r0.Dist_mis.schedule)
    (schedule_array g r1.Dist_mis.schedule);
  Alcotest.(check bool) "stats" true (r0.Dist_mis.stats = r1.Dist_mis.stats);
  Alcotest.(check int) "outer iterations" r0.Dist_mis.outer_iters r1.Dist_mis.outer_iters;
  Alcotest.(check int) "inner iterations" r0.Dist_mis.inner_iters r1.Dist_mis.inner_iters

let prop_hashed_mis_valid =
  qtest "Hashed MIS is a deterministic maximal independent set" ~count:30
    (Generators.arb_gnp ~min_n:1 ~max_n:25 ())
    (fun g ->
      let active = Array.make (Graph.n g) true in
      let mis, _ = Mis.compute ~algo:(Mis.Hashed 1) g ~active in
      let mis', _ = Mis.compute ~algo:(Mis.Hashed 1) g ~active in
      Mis.is_independent g mis && Mis.is_maximal g ~active mis && mis = mis')

let () =
  Alcotest.run "fdlsp_parallel"
    [
      ( "partition",
        [
          Alcotest.test_case "bfs path" `Quick test_partition_bfs_path;
          Alcotest.test_case "geometric strips" `Quick test_partition_geometric;
          prop_partition_well_formed;
        ] );
      ( "identity",
        [
          prop_gnp;
          prop_udg;
          prop_tree;
          prop_connected;
          Alcotest.test_case "bad args" `Quick test_rejects_bad_args;
          Alcotest.test_case "non-neighbor send" `Quick test_non_neighbor_send;
        ] );
      ( "routing",
        [ prop_routed_gnp; prop_routed_udg; prop_routed_tree; prop_routed_connected ] );
      ( "observability",
        [
          Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
          Alcotest.test_case "spans" `Quick test_spans;
        ] );
      ( "distmis",
        [
          prop_distmis_engine_free;
          Alcotest.test_case "engine-independent on a 3000-node UDG" `Quick
            test_distmis_engine_free_large;
          prop_hashed_mis_valid;
        ] );
    ]
