(* The four workloads.  Each is a set-up (timed as [setup_s]) that
   returns an instance whose [step] runs one op and whose [finish] runs
   the end-of-run checks.  Only the calls into the library are
   timed; input generation, checks and bound computations sit outside
   the timers.  Every call into a layer is wrapped in a bench-side span
   so the traced run attributes time without new spans in the library. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core
open Harness
module Metrics = Fdlsp_sim.Metrics
module Stats = Fdlsp_sim.Stats
module Parallel = Fdlsp_sim.Parallel

type env = {
  seed : int;
  tiny : bool;
  spans : unit -> Span.sink;  (** the traced run's current ring, or [Span.null] *)
  metrics : Metrics.t option;  (** registry for engine gauges in the traced run *)
}

type instance = {
  step : acc -> unit;  (** run op number [a.op] *)
  finish : acc -> unit;  (** end-of-run checks; releases what [dispose] would *)
  dispose : unit -> unit;  (** release an instance that will not be finished *)
  fixed_sink : bool;  (** the library holds the span sink: never rotate it *)
  fingerprint : string;  (** digest of the generated inputs *)
}

type workload = { name : string; prefix : tiny:bool -> int; setup : env -> instance }

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

(* A UDG of [n] nodes at average degree 8: side sqrt(n pi / 8), r = 1. *)
let udg env ~n =
  let side = sqrt (float_of_int n *. Float.pi /. 8.) in
  let gp =
    Span.span (env.spans ()) "graph.gen" (fun () ->
        Gen.udg (Random.State.make [| env.seed; n |]) ~n ~side ~radius:1.)
  in
  (gp, side)

let check_schedule a what g sched =
  check a (what ^ ": invalid schedule") (Schedule.valid sched);
  check a (what ^ ": over Bounds.upper") (Schedule.num_slots sched <= Bounds.upper g)

(* Slot quality over the prefix: every schedule's slot count, and its
   ratio to a from-scratch [Greedy] first-fit of the same topology (the
   greedyColor reference of Lemmas 9-10). *)
let slots a ~greedy sched =
  let k = float_of_int (Schedule.num_slots sched) in
  add_exact a "slots.sum" k;
  add_exact a "slots.n" 1.;
  (* an edgeless graph needs no slots from anyone *)
  if greedy > 0 then begin
    add_exact a "slots.ratio_sum" (k /. float_of_int greedy);
    add_exact a "slots.ratio_n" 1.
  end

let slots_finish a =
  set a "slots_mean" (get a.exact "slots.sum" /. get a.exact "slots.n");
  if not (Hashtbl.mem a.final "slots_vs_greedy") then
    set a "slots_vs_greedy" (get a.exact "slots.ratio_sum" /. get a.exact "slots.ratio_n")

let memo f gs =
  let cache = Array.make (Array.length gs) None in
  fun i ->
    match cache.(i) with
    | Some v -> v
    | None ->
        let v = f gs.(i) in
        cache.(i) <- Some v;
        v

let greedy_slots g = Schedule.num_slots (Greedy.color g)

(* ------------------------------------------------------------------ *)
(* Scheduling workloads                                                *)
(* ------------------------------------------------------------------ *)

(* One scheduler call, timed and spanned; its seconds land in [sums]
   under [key]. *)
let call a env key span f =
  let r, dt = stopwatch (fun () -> Span.span (env.spans ()) span f) in
  add a key dt;
  add a (key ^ ".calls") 1.;
  (r, dt)

let sim_counts a (s : Stats.t) =
  add_exact a "sim.rounds" (float_of_int s.Stats.rounds);
  add_exact a "sim.messages" (float_of_int s.Stats.messages);
  add_exact a "sim.volume" (float_of_int s.Stats.volume)

(* Figs 8-10 of the paper: side/radius in {15, 17, 20} x n in {50, 100,
   200, 300}, 75 graphs per point.  One op schedules one graph of every
   point, so ops are alike and op [i] uses the [i mod 75]-th graphs. *)
let paper_udg =
  let points ~tiny =
    let sides, ns =
      if tiny then ([ 15.; 20. ], [ 40; 80 ]) else ([ 15.; 17.; 20. ], [ 50; 100; 200; 300 ])
    in
    Array.of_list (List.concat_map (fun s -> List.map (fun n -> (s, n)) ns) sides)
  in
  let reps ~tiny = if tiny then 3 else 75 in
  {
    name = "paper-udg";
    prefix = (fun ~tiny -> if tiny then 3 else 10);
    setup =
      (fun env ->
        let pts = points ~tiny:env.tiny in
        let k = Array.length pts in
        let reps = reps ~tiny:env.tiny in
        let gs =
          Array.init (k * reps) (fun i ->
              let side, n = pts.(i mod k) in
              Span.span (env.spans ()) "graph.gen" (fun () ->
                  fst (Gen.udg (Random.State.make [| env.seed; i |]) ~n ~side:(side /. 2.) ~radius:0.5)))
        in
        let lower = memo Bounds.lower gs and greedy = memo greedy_slots gs in
        let schedule a j =
          let g = gs.(j) in
          let rng = Random.State.make [| env.seed; j; 7 |] in
          let dm, t1 =
            call a env "distmis" "bench.distmis" (fun () ->
                Dist_mis.run ~spans:(env.spans ()) ~mis:(Mis.Luby rng) ~variant:Dist_mis.Gbg g)
          in
          let dfs, t2 = call a env "dfs" "bench.dfs" (fun () -> Dfs_sched.run ~spans:(env.spans ()) g) in
          let dmgc, t3 = call a env "dmgc" "bench.dmgc" (fun () -> Dmgc.run ~spans:(env.spans ()) g) in
          let scheds = [ dm.Dist_mis.schedule; dfs.Dfs_sched.schedule; dmgc.Dmgc.schedule ] in
          Span.span (env.spans ()) "bench.check" (fun () ->
              List.iter2 (fun w s -> check_schedule a w g s) [ "distmis"; "dfs"; "dmgc" ] scheds;
              if a.op < a.prefix then
                List.iter
                  (fun s ->
                    check a "below Bounds.lower" (Schedule.num_slots s >= lower j);
                    slots a ~greedy:(greedy j) s)
                  scheds);
          sim_counts a (Stats.add dm.Dist_mis.stats dfs.Dfs_sched.stats);
          add_exact a "distmis.outer_iters" (float_of_int dm.Dist_mis.outer_iters);
          add_exact a "distmis.inner_iters" (float_of_int dm.Dist_mis.inner_iters);
          add_exact a "dfs.token_moves" (float_of_int dfs.Dfs_sched.token_moves);
          add_exact a "dmgc.injected_edges" (float_of_int dmgc.Dmgc.injected_edges);
          t1 +. t2 +. t3
        in
        let op a =
          let rep = a.op mod reps in
          let dt = ref 0. and arcs = ref 0 in
          for p = 0 to k - 1 do
            let j = (rep * k) + p in
            dt := !dt +. schedule a j;
            arcs := !arcs + (3 * Arc.count gs.(j))
          done;
          record a ~items:!arcs !dt
        in
        {
          step = op;
          finish = slots_finish;
          dispose = ignore;
          fixed_sink = false;
          fingerprint = digest (Array.map Graph.edges gs);
        });
  }

(* One UDG at n = 8000: DistMIS on the sequential engine, the same call
   through the 2-domain parallel engine (the only workload above its
   size threshold), and DFS on the asynchronous engine.  DFS runs into
   the asynchronous engine's fixed 10^6-event budget just above
   n = 10^4 (942k-984k messages over 40 seeds there); at 8000 the worst
   of 51 seeds sends 783k. *)
let udg_8k =
  {
    name = "udg-8k";
    prefix = (fun ~tiny:_ -> 1);
    setup =
      (fun env ->
        let (g, points), _ = udg env ~n:(if env.tiny then 600 else 8000) in
        (* tiny graphs sit below the parallel engine's size threshold;
           force it so the check still exercises the sharded path *)
        let threshold = if env.tiny then Some 0 else None in
        let greedy = memo greedy_slots [| g |] in
        let seed = env.seed in
        (* each call starts from a compacted heap, so no call pays for
           the previous one's garbage or heap growth *)
        let call a key span f =
          Gc.compact ();
          call a env key span f
        in
        let op a =
          let seq, t1 =
            call a "distmis" "bench.distmis" (fun () ->
                Dist_mis.run ~spans:(env.spans ()) ~mis:(Mis.Hashed seed) ~variant:Dist_mis.Gbg g)
          in
          let msink = match env.metrics with Some r -> Metrics.sink r | None -> Metrics.null in
          let par, t2 =
            call a "distmis_par" "bench.distmis_par" (fun () ->
                let engine = Parallel.runner ~spans:(env.spans ()) ?threshold ~points ~domains:2 () in
                Dist_mis.run ~engine ~metrics:msink ~mis:(Mis.Hashed seed) ~variant:Dist_mis.Gbg g)
          in
          let dfs, t3 = call a "dfs" "bench.dfs" (fun () -> Dfs_sched.run ~spans:(env.spans ()) g) in
          record a ~items:(3 * Arc.count g) (t1 +. t2 +. t3);
          Span.span (env.spans ()) "bench.check" (fun () ->
              check_schedule a "distmis" g seq.Dist_mis.schedule;
              check_schedule a "dfs" g dfs.Dfs_sched.schedule;
              check a "parallel run differs from sequential"
                (Schedule.equal seq.Dist_mis.schedule par.Dist_mis.schedule
                && seq.Dist_mis.stats = par.Dist_mis.stats);
              if a.op < a.prefix then
                List.iter (slots a ~greedy:(greedy 0))
                  [ seq.Dist_mis.schedule; par.Dist_mis.schedule; dfs.Dfs_sched.schedule ]);
          (match env.metrics with
          | Some r ->
              let gauge name =
                Option.value ~default:0.
                  (Metrics.gauge_value ~labels:[ ("engine", "parallel"); ("phase", "mis") ] r name)
              in
              add a "parallel.barrier_frac" (gauge Metrics.Name.parallel_barrier_frac);
              add a "parallel.cut_frac" (gauge Metrics.Name.parallel_cut_frac)
          | None -> ());
          sim_counts a (Stats.add seq.Dist_mis.stats dfs.Dfs_sched.stats);
          add_exact a "distmis.outer_iters" (float_of_int seq.Dist_mis.outer_iters);
          add_exact a "distmis.inner_iters" (float_of_int seq.Dist_mis.inner_iters);
          add_exact a "dfs.token_moves" (float_of_int dfs.Dfs_sched.token_moves)
        in
        {
          step = op;
          finish = slots_finish;
          dispose = ignore;
          fixed_sink = false;
          fingerprint = digest (Graph.edges g);
        });
  }

(* ------------------------------------------------------------------ *)
(* Serving workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* The shared serve loop: one op = generate a batch (untimed), ingest
   it (timed), check it, then time a block of [queries] slot lookups
   and check every answer against the live schedule. *)
type serve = {
  svc : Service.t;
  ingest : Service.event list -> Service.batch;
  gen : Geochurn.t;
  batch : int;
  queries : int;
  valid_every : int;  (** full Definition-2 validation every that many ops *)
  mutable prefix_graph : Graph.t option;  (** the topology after the prefix *)
  mutable prefix_slots : int;
}

let serve_op env s a =
  let evs = Geochurn.batch s.gen ~size:s.batch in
  let sp = env.spans () in
  let b, dt = stopwatch (fun () -> Span.span sp "bench.apply" (fun () -> s.ingest evs)) in
  let events = List.length evs in
  record a ~items:events dt;
  let svc = s.svc in
  Span.span sp "bench.check" (fun () ->
      let g = Service.graph svc in
      check a "batch receipt disagrees with the service" (b.Service.b_slots = Service.num_slots svc);
      check a "over Bounds.upper" (Service.num_slots svc <= Bounds.upper g);
      if (a.op + 1) mod s.valid_every = 0 then
        check a "invalid schedule" (Schedule.valid (Service.schedule svc)));
  let us, vs = Geochurn.query_pairs s.gen s.queries in
  let got = Array.make s.queries 0 in
  let (), qt =
    stopwatch (fun () ->
        Span.span sp "bench.query" (fun () ->
            for i = 0 to s.queries - 1 do
              got.(i) <- (match Service.slot_of_arc svc us.(i) vs.(i) with Some c -> c | None -> -1)
            done))
  in
  add a "query_s" qt;
  add a "queries" (float_of_int s.queries);
  Span.span sp "bench.check" (fun () ->
      let g = Service.graph svc and sched = Service.schedule svc in
      for i = 0 to s.queries - 1 do
        let want =
          if Graph.mem_edge g us.(i) vs.(i) then Schedule.get sched (Arc.make g us.(i) vs.(i))
          else -2
        in
        if got.(i) <> want then check a "query disagrees with Service.schedule" false
      done);
  add_exact a "service.events" (float_of_int events);
  add_exact a "service.ops" (float_of_int b.Service.b_ops);
  add_exact a "service.recolored" (float_of_int b.Service.b_recolored);
  add_exact a "service.touched_frac" b.Service.b_touched_frac;
  if a.op = a.prefix - 1 then begin
    s.prefix_graph <- Some (Service.graph svc);
    s.prefix_slots <- Service.num_slots svc
  end;
  if a.op < a.prefix then begin
    add_exact a "slots.sum" (float_of_int b.Service.b_slots);
    add_exact a "slots.n" 1.
  end

(* End-of-run checks (the model graph, a full validation) and the
   ratios over the prefix, each given with its base [service.events]. *)
let serve_finish s a =
  let svc = s.svc in
  ignore
    (attempt a "model graph" (fun () ->
         check a "service graph differs from the churn model"
           (Graph.equal (Service.graph svc) (Geochurn.graph s.gen))));
  ignore
    (attempt a "final validation" (fun () ->
         check a "invalid final schedule" (Schedule.valid (Service.schedule svc))));
  let events = get a.exact "service.events" in
  set a "service.events" events;
  set a "service.ops_per_event" (get a.exact "service.ops" /. events);
  set a "service.recolored_per_event" (get a.exact "service.recolored" /. events);
  (* the service's slots right after the prefix against a from-scratch
     first-fit of the topology it then held *)
  (match s.prefix_graph with
  | Some g -> set a "slots_vs_greedy" (float_of_int s.prefix_slots /. float_of_int (greedy_slots g))
  | None -> ());
  slots_finish a

(* Serving state at n = 10^5: set-up colors the graph with [Greedy]. *)
let serve_100k =
  {
    name = "serve-100k";
    prefix = (fun ~tiny -> if tiny then 4 else 16);
    setup =
      (fun env ->
        let n = if env.tiny then 2000 else 100_000 in
        let (g, points), side = udg env ~n in
        let sched = Span.span (env.spans ()) "color.greedy" (fun () -> Greedy.color g) in
        let svc = Service.create ~spans:(env.spans ()) sched in
        let s =
          {
            svc;
            ingest = Service.apply svc;
            gen = Geochurn.create ~seed:env.seed ~side ~radius:1. (g, points);
            batch = 8;
            queries = (if env.tiny then 64 else 1024);
            valid_every = max_int;
            prefix_graph = None;
            prefix_slots = 0;
          }
        in
        {
          step = serve_op env s;
          finish = serve_finish s;
          dispose = ignore;
          fixed_sink = true;
          fingerprint = digest (Graph.edges g);
        });
  }

(* Scratch directory for the write-ahead log, inside the working
   directory (the benchmark writes nowhere else). *)
let tmp_root = ".perfbench-tmp"

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir =
  let k = ref 0 in
  fun () ->
    if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
    incr k;
    let d = Filename.concat tmp_root (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) !k) in
    rm_rf d;
    d

let cleanup_tmp () =
  if Sys.file_exists tmp_root then begin
    Array.iter (fun d -> rm_rf (Filename.concat tmp_root d)) (Sys.readdir tmp_root);
    Sys.rmdir tmp_root
  end

(* Durable serving at n = 10^3: single-event batches through the WAL
   store, then recovery over the log of the first [prefix] batches,
   three times, each checked equal to the live state at that point. *)
let serve_1k =
  {
    name = "serve-1k";
    prefix = (fun ~tiny -> if tiny then 64 else 512);
    setup =
      (fun env ->
        let n = if env.tiny then 200 else 1000 in
        let (g, points), side = udg env ~n in
        let sched = Span.span (env.spans ()) "color.greedy" (fun () -> Greedy.color g) in
        let dir = fresh_dir () in
        let store =
          Wal.Store.create ~spans:(env.spans ()) ~dir (Service.create ~spans:(env.spans ()) sched)
        in
        let wal = Filename.concat dir "wal" in
        let s =
          {
            svc = Wal.Store.service store;
            ingest = Wal.Store.apply store;
            gen = Geochurn.create ~seed:env.seed ~side ~radius:1. (g, points);
            batch = 1;
            queries = (if env.tiny then 64 else 1024);
            valid_every = 64;
            prefix_graph = None;
            prefix_slots = 0;
          }
        in
        let prefix_log = ref 0 and prefix_state = ref "" in
        let op a =
          serve_op env s a;
          if a.op = a.prefix - 1 then begin
            prefix_log := (Unix.stat wal).Unix.st_size;
            prefix_state := Service.snapshot (Wal.Store.service store)
          end
        in
        let finish a =
          serve_finish s a;
          Wal.Store.close store;
          set a "wal.bytes_per_event" (float_of_int !prefix_log /. get a.final "service.events");
          (* recover over exactly the first [prefix] segments, so the
             replayed log has the same length on every run *)
          Unix.truncate wal !prefix_log;
          let want = Service.restore !prefix_state in
          let times =
            List.init 3 (fun _ ->
                let r = ref 0. in
                ignore
                  (attempt a "recovery" (fun () ->
                       let (st, rv), dt =
                         stopwatch (fun () -> Wal.Store.recover ~spans:(env.spans ()) ~dir ())
                       in
                       r := dt;
                       check a "recovery replayed the wrong segment count"
                         (rv.Wal.Store.rv_replayed = a.prefix);
                       check a "recovered state differs from the live state"
                         (Service.equal (Wal.Store.service st) want);
                       Wal.Store.close st));
                !r)
          in
          set a "recovery_s" (median times);
          set a "wal.recover.calls" 3.;
          rm_rf dir
        in
        let dispose () =
          Wal.Store.close store;
          rm_rf dir
        in
        { step = op; finish; dispose; fixed_sink = true; fingerprint = digest (Graph.edges g) });
  }

let all = [ paper_udg; udg_8k; serve_100k; serve_1k ]
let find name = List.find_opt (fun w -> w.name = name) all
