(* Reproduction of every table and figure in the paper's Section 8.
   See DESIGN.md section 4 for the experiment index and EXPERIMENTS.md
   for paper-vs-measured records. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core
module Metrics = Fdlsp_sim.Metrics

type config = {
  seeds : int;  (** random graphs per data point (paper: 75) *)
  base_seed : int;
  smoke : bool;  (** CI mode: shrink point sets to a representative corner *)
  metrics : Metrics.t;  (** registry the experiment records into *)
}

let default = { seeds = 10; base_seed = 42; smoke = false; metrics = Metrics.create () }

let rng_for cfg k = Random.State.make [| cfg.base_seed; k |]

(* Labeled sink into the experiment's registry: protocol runs add their
   own {algo, engine, phase} labels under these point-identity labels. *)
let msink cfg labels = Metrics.sink ~labels cfg.metrics

(* Smoke mode keeps the first [k] points of a sweep. *)
let take_smoke cfg k xs = if cfg.smoke then List.filteri (fun i _ -> i < k) xs else xs

(* The four slot-count series every figure plots. *)
type series = {
  lb : float;
  dist_mis : float;
  dfs : float;
  dmgc : float;
  ub : float;
  avg_deg : float;
  rounds : float;  (** distMIS communication rounds *)
  messages : float;
  volume : float;  (** payload entries across all distMIS messages *)
}

let measure_point cfg ?(labels = []) ~variant make_graph =
  let m = msink cfg labels in
  let samples =
    List.init cfg.seeds (fun k ->
        let rng = rng_for cfg k in
        let g = make_graph rng in
        let dm = Dist_mis.run ~metrics:m ~mis:(Mis.Luby rng) ~variant g in
        let dfs = Dfs_sched.run ~metrics:m g in
        let dmgc = Dmgc.run ~metrics:m g in
        ( Bounds.lower g,
          Schedule.num_slots dm.Dist_mis.schedule,
          Schedule.num_slots dfs.Dfs_sched.schedule,
          Schedule.num_slots dmgc.Dmgc.schedule,
          Bounds.upper g,
          Graph.avg_degree g,
          dm.Dist_mis.stats ))
  in
  let pick f = Report.mean (List.map f samples) in
  let s =
    {
      lb = pick (fun (x, _, _, _, _, _, _) -> float_of_int x);
      dist_mis = pick (fun (_, x, _, _, _, _, _) -> float_of_int x);
      dfs = pick (fun (_, _, x, _, _, _, _) -> float_of_int x);
      dmgc = pick (fun (_, _, _, x, _, _, _) -> float_of_int x);
      ub = pick (fun (_, _, _, _, x, _, _) -> float_of_int x);
      avg_deg = pick (fun (_, _, _, _, _, x, _) -> x);
      rounds = pick (fun (_, _, _, _, _, _, st) -> float_of_int st.Fdlsp_sim.Stats.rounds);
      messages = pick (fun (_, _, _, _, _, _, st) -> float_of_int st.Fdlsp_sim.Stats.messages);
      volume = pick (fun (_, _, _, _, _, _, st) -> float_of_int st.Fdlsp_sim.Stats.volume);
    }
  in
  let slots series v =
    Metrics.gauge (Metrics.with_label m "series" series) "fdlsp_bench_slots" v
  in
  slots "lb" s.lb;
  slots "distmis" s.dist_mis;
  slots "dfs" s.dfs;
  slots "dmgc" s.dmgc;
  slots "ub" s.ub;
  Metrics.gauge m "fdlsp_bench_avg_degree" s.avg_deg;
  s

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 cfg =
  Report.section
    "Table 1: optimal (ILP) vs distributed DFS on complete bipartite and complete graphs";
  (* paper-reported values for side-by-side comparison *)
  let instances =
    [
      ("K2,2", Gen.complete_bipartite 2 2, "4", "4");
      ("K3,3", Gen.complete_bipartite 3 3, "9", "10");
      ("K4,4", Gen.complete_bipartite 4 4, "15", "18");
      ("K4", Gen.complete 4, "12", "12");
      ("K5", Gen.complete 5, "20", "20");
    ]
  in
  let instances =
    if cfg.smoke then
      List.filter (fun (name, _, _, _) -> List.mem name [ "K2,2"; "K3,3"; "K4" ]) instances
    else instances
  in
  let rows =
    List.map
      (fun (name, g, paper_ilp, paper_dfs) ->
        let m = msink cfg [ ("instance", name) ] in
        let exact = Dsatur.fdlsp_optimal ~max_decisions:50_000_000 g in
        let status = if exact.Dsatur.status = Dsatur.Optimal then "optimal" else "best-found" in
        let dfs = Dfs_sched.run ~metrics:m g in
        Metrics.gauge m "fdlsp_bench_optimal_colors" (float_of_int exact.Dsatur.colors_used);
        Metrics.gauge m "fdlsp_bench_dfs_slots"
          (float_of_int (Schedule.num_slots dfs.Dfs_sched.schedule));
        [
          name;
          paper_ilp;
          string_of_int exact.Dsatur.colors_used;
          status;
          paper_dfs;
          string_of_int (Schedule.num_slots dfs.Dfs_sched.schedule);
        ])
      instances
  in
  print_string
    (Report.table
       ~header:[ "instance"; "ILP(paper)"; "optimal(ours)"; "status"; "DFS(paper)"; "DFS(ours)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figures 8-10: UDG slot counts                                       *)
(* ------------------------------------------------------------------ *)

(* The paper places nodes in a 15/17/20-unit square where "the unit
   length in our sample is 0.5" and links nodes within distance 0.5 -
   i.e. a side/radius ratio of 15, 17 and 20 (UDGs are scale
   invariant).  Reading the side lengths as raw radius multiples instead
   gives average degrees of 0.2-1 at n <= 300, where every algorithm
   trivially coincides - clearly not the regime of the paper's plots.
   See EXPERIMENTS.md. *)
let fig_udg cfg ~figure ~side =
  Report.section
    (Printf.sprintf
       "Figure %d: time slot assignment in UDG, plan area %gx%g units (unit = 0.5 = radius, \
        %d seeds)"
       figure side side cfg.seeds);
  let rows =
    List.map
      (fun n ->
        let s =
          measure_point cfg
            ~labels:[ ("figure", string_of_int figure); ("n", string_of_int n) ]
            ~variant:Dist_mis.Gbg
            (fun rng -> fst (Gen.udg rng ~n ~side:(side /. 2.) ~radius:0.5))
        in
        [
          string_of_int n;
          Report.f1 s.avg_deg;
          Report.f1 s.lb;
          Report.f1 s.dist_mis;
          Report.f1 s.dfs;
          Report.f1 s.dmgc;
          Report.f1 s.ub;
        ])
      (take_smoke cfg 2 [ 50; 100; 200; 300 ])
  in
  print_string
    (Report.table
       ~header:[ "nodes"; "avg_deg"; "LB"; "distMIS"; "DFS"; "D-MGC"; "UB" ]
       rows)

let fig8 cfg = fig_udg cfg ~figure:8 ~side:15.
let fig9 cfg = fig_udg cfg ~figure:9 ~side:17.
let fig10 cfg = fig_udg cfg ~figure:10 ~side:20.

(* ------------------------------------------------------------------ *)
(* Figures 11-12 and 14-15: general-graph slots and DistMIS rounds     *)
(* ------------------------------------------------------------------ *)

(* Figure 14 (15) plots the DistMIS rounds of exactly the runs behind
   Figure 12's (11's) slot counts -- same graphs, seeds and general-graph
   variant -- so one sweep records and prints both tables. *)
let fig_general cfg ~figures:(slots_fig, rounds_fig) ~n ~edge_counts ~smoke_points =
  let points =
    List.map
      (fun m ->
        ( m,
          measure_point cfg
            ~labels:[ ("n", string_of_int n); ("edges", string_of_int m) ]
            ~variant:Dist_mis.General
            (fun rng -> Gen.gnm rng ~n ~m) ))
      (take_smoke cfg smoke_points edge_counts)
  in
  Report.section
    (Printf.sprintf
       "Figure %d: time slot assignment in general graphs, %d nodes (%d seeds; DistMIS = \
        general-graph variant of Section 6)"
       slots_fig n cfg.seeds);
  print_string
    (Report.table
       ~header:[ "edges"; "avg_deg"; "LB"; "distMIS"; "DFS"; "D-MGC"; "UB" ]
       (List.map
          (fun (m, s) ->
            [
              string_of_int m;
              Report.f1 s.avg_deg;
              Report.f1 s.lb;
              Report.f1 s.dist_mis;
              Report.f1 s.dfs;
              Report.f1 s.dmgc;
              Report.f1 s.ub;
            ])
          points));
  Report.section
    (Printf.sprintf
       "Figure %d: DistMIS communication rounds in general graphs, %d nodes (%d seeds)"
       rounds_fig n cfg.seeds);
  print_string
    (Report.table
       ~header:[ "edges"; "avg_deg"; "rounds"; "messages"; "payload" ]
       (List.map
          (fun (m, s) ->
            [
              string_of_int m;
              Report.f1 s.avg_deg;
              Report.f1 s.rounds;
              Report.f1 s.messages;
              Report.f1 s.volume;
            ])
          points))

let fig11 cfg =
  fig_general cfg ~figures:(11, 15) ~n:200 ~edge_counts:[ 300; 600; 1000; 1500; 2000 ]
    ~smoke_points:2

let fig12 cfg =
  fig_general cfg ~figures:(12, 14) ~n:500 ~edge_counts:[ 750; 1500; 2500; 4000; 6000 ]
    ~smoke_points:1

(* ------------------------------------------------------------------ *)
(* Figure 13: DistMIS communication rounds vs UDG density              *)
(* ------------------------------------------------------------------ *)

let fig13 cfg =
  Report.section
    (Printf.sprintf
       "Figure 13: DistMIS communication rounds in UDG with varying edges (%d seeds; \
        density swept via transmission radius, plan 15x15)"
       cfg.seeds);
  let radii = take_smoke cfg 2 [ 0.5; 0.8; 1.1; 1.4; 1.7 ] in
  List.iter
    (fun n ->
      let rows =
        List.map
          (fun radius ->
            let edges =
              Report.mean_int
                (List.init cfg.seeds (fun k ->
                     Graph.m (fst (Gen.udg (rng_for cfg k) ~n ~side:15. ~radius))))
            in
            let s =
              measure_point cfg
                ~labels:
                  [
                    ("figure", "13");
                    ("n", string_of_int n);
                    ("radius", Printf.sprintf "%.1f" radius);
                  ]
                ~variant:Dist_mis.Gbg
                (fun rng -> fst (Gen.udg rng ~n ~side:15. ~radius))
            in
            [
              Printf.sprintf "%.1f" radius;
              Report.f1 edges;
              Report.f1 s.rounds;
              Report.f1 s.messages;
              Report.f1 s.volume;
            ])
          radii
      in
      Printf.printf "nodes = %d:\n" n;
      print_string
        (Report.table ~header:[ "radius"; "edges"; "rounds"; "messages"; "payload" ] rows);
      print_newline ())
    (take_smoke cfg 1 [ 100; 200; 300 ])

(* ------------------------------------------------------------------ *)
(* Fault sweep (robustness; beyond the paper's figures)                *)
(* ------------------------------------------------------------------ *)

(* Reliable DistMIS and DFS under uniform message loss: the overhead
   columns chart what the ack/retransmit layer pays, relative to the
   lossless run of the same family/algorithm, to keep the schedules
   valid. *)
let faults cfg =
  Report.section
    (Printf.sprintf
       "Fault sweep: schedule validity and retransmission overhead under uniform loss \
        (%d seeds; reliable layer at default tuning)"
       cfg.seeds);
  let losses =
    if cfg.smoke then [ 0.0; 0.1 ] else [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
  in
  let families =
    [
      ("udg", fun rng -> fst (Gen.udg rng ~n:40 ~side:6. ~radius:1.));
      ("gnp", fun rng -> Gen.gnp rng ~n:40 ~p:0.08);
    ]
  in
  let run_algo m algo faults rng g =
    match algo with
    | `Distmis ->
        let r = Dist_mis.run ?faults ~metrics:m ~mis:(Mis.Luby rng) ~variant:Dist_mis.Gbg g in
        (r.Dist_mis.schedule, r.Dist_mis.stats)
    | `Dfs ->
        let r = Dfs_sched.run ?faults ~metrics:m g in
        (r.Dfs_sched.schedule, r.Dfs_sched.stats)
  in
  List.iter
    (fun (fam, make_graph) ->
      List.iter
        (fun (algo_name, algo) ->
          let base_rounds = ref nan and base_msgs = ref nan in
          let rows =
            List.map
              (fun loss ->
                let m =
                  msink cfg [ ("family", fam); ("loss", Printf.sprintf "%.2f" loss) ]
                in
                let all_valid = ref true in
                let samples =
                  List.init cfg.seeds (fun k ->
                      let rng = rng_for cfg k in
                      let g = make_graph rng in
                      let faults =
                        if loss = 0. then None
                        else
                          Some
                            (Fdlsp_sim.Fault.uniform
                               ~seed:(cfg.base_seed + (977 * k) + int_of_float (loss *. 1000.))
                               loss)
                      in
                      let sched, st = run_algo m algo faults rng g in
                      if not (Schedule.valid sched) then all_valid := false;
                      st)
                in
                let pick f =
                  Report.mean (List.map (fun st -> float_of_int (f st)) samples)
                in
                let rounds = pick (fun s -> s.Fdlsp_sim.Stats.rounds) in
                let messages = pick (fun s -> s.Fdlsp_sim.Stats.messages) in
                let dropped = pick (fun s -> s.Fdlsp_sim.Stats.dropped) in
                let retransmits = pick (fun s -> s.Fdlsp_sim.Stats.retransmits) in
                if loss = 0. then begin
                  base_rounds := rounds;
                  base_msgs := messages
                end;
                let round_x = rounds /. !base_rounds in
                let msg_x = messages /. !base_msgs in
                let mg = Metrics.with_label m "algo" algo_name in
                Metrics.gauge mg "fdlsp_bench_valid" (if !all_valid then 1. else 0.);
                Metrics.gauge mg "fdlsp_bench_round_overhead" round_x;
                Metrics.gauge mg "fdlsp_bench_message_overhead" msg_x;
                [
                  Printf.sprintf "%.2f" loss;
                  string_of_bool !all_valid;
                  Report.f1 rounds;
                  Report.f1 messages;
                  Report.f1 dropped;
                  Report.f1 retransmits;
                  Printf.sprintf "%.2f" round_x;
                  Printf.sprintf "%.2f" msg_x;
                ])
              losses
          in
          Printf.printf "%s / %s:\n" fam algo_name;
          print_string
            (Report.table
               ~header:
                 [
                   "loss"; "valid"; "rounds"; "messages"; "dropped"; "retransmits";
                   "rounds_x"; "messages_x";
                 ]
               rows);
          print_newline ())
        [ ("distmis", `Distmis); ("dfs", `Dfs) ])
    families

(* ------------------------------------------------------------------ *)
(* Per-phase breakdowns from event traces                              *)
(* ------------------------------------------------------------------ *)

(* Where do DistMIS's rounds and messages actually go?  Each run records
   into an in-memory trace sink; Trace.Summary splits the stream at the
   phase markers (mis / secondary-mis / color for DistMIS, dfs for the
   token algorithm).  Per-phase columns are raw segment counts; the
   totals row is scale-weighted (secondary-MIS runs once per virtual
   color graph) and reconciles with the run's aggregate Stats. *)
let phases cfg =
  Report.section
    (Printf.sprintf
       "Phase breakdown from traces: rounds/messages per algorithm phase (%d seeds)"
       cfg.seeds);
  let families =
    [
      ("udg", fun rng -> fst (Gen.udg rng ~n:40 ~side:6. ~radius:1.));
      ("gnp", fun rng -> Gen.gnp rng ~n:40 ~p:0.08);
    ]
  in
  let settings = [ ("lossless", 0.0); ("loss=0.10", 0.1) ] in
  let run_traced m algo loss rng k g =
    let trace = Fdlsp_sim.Trace.memory ~capacity:2_000_000 () in
    let faults =
      if loss = 0. then None
      else
        Some
          (Fdlsp_sim.Fault.uniform
             ~seed:(cfg.base_seed + (977 * k) + int_of_float (loss *. 1000.))
             loss)
    in
    (match algo with
    | `Distmis ->
        ignore
          (Dist_mis.run ?faults ~trace ~metrics:m ~mis:(Mis.Luby rng) ~variant:Dist_mis.Gbg g)
    | `Dfs -> ignore (Dfs_sched.run ?faults ~trace ~metrics:m g));
    Fdlsp_sim.Trace.Summary.of_events (Fdlsp_sim.Trace.events trace)
  in
  let columns = [ "scale"; "rounds"; "sends"; "recvs"; "drops"; "dups"; "retransmits" ] in
  List.iter
    (fun (fam, make_graph) ->
      List.iter
        (fun (algo_name, algo) ->
          List.iter
            (fun (setting, loss) ->
              (* aggregate segments by label, in order of first appearance *)
              let order = ref [] in
              let acc : (string, float ref array * int ref) Hashtbl.t =
                Hashtbl.create 8
              in
              let record (p : Fdlsp_sim.Trace.Summary.phase) =
                let cells, seen =
                  match Hashtbl.find_opt acc p.label with
                  | Some c -> c
                  | None ->
                      let c = (Array.init 7 (fun _ -> ref 0.), ref 0) in
                      Hashtbl.add acc p.label c;
                      order := p.label :: !order;
                      c
                in
                incr seen;
                List.iteri
                  (fun i v -> cells.(i) := !(cells.(i)) +. float_of_int v)
                  [
                    p.scale; p.rounds; p.sends; p.recvs; p.drops; p.duplicates;
                    p.retransmits;
                  ]
              in
              let m =
                msink cfg [ ("family", fam); ("loss", Printf.sprintf "%.2f" loss) ]
              in
              for k = 0 to cfg.seeds - 1 do
                let rng = rng_for cfg k in
                let g = make_graph rng in
                let summary = run_traced m algo loss rng k g in
                List.iter record summary.Fdlsp_sim.Trace.Summary.phases;
                record (Fdlsp_sim.Trace.Summary.totals summary)
              done;
              let rows =
                List.map
                  (fun label ->
                    let cells, seen = Hashtbl.find acc label in
                    let mean i = !(cells.(i)) /. float_of_int !seen in
                    let mp =
                      Metrics.with_label (Metrics.with_label m "algo" algo_name) "phase" label
                    in
                    List.iteri
                      (fun i col -> Metrics.gauge mp ("fdlsp_bench_phase_" ^ col) (mean i))
                      columns;
                    label :: List.mapi (fun i _ -> Report.f1 (mean i)) columns)
                  (List.rev !order)
              in
              Printf.printf "%s / %s / %s:\n" fam algo_name setting;
              print_string (Report.table ~header:("phase" :: columns) rows);
              print_newline ())
            settings)
        [ ("distmis", `Distmis); ("dfs", `Dfs) ])
    families

(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper's figures)                              *)
(* ------------------------------------------------------------------ *)

let ablation cfg =
  Report.section "Ablation A: MIS subroutine inside DistMIS (UDG, n=150, side 10, r=1)";
  let make rng = fst (Gen.udg rng ~n:150 ~side:10. ~radius:1.) in
  let run_mis algo_name algo =
    let slug =
      match algo with `Luby -> "luby" | `Local_min -> "localmin" | `Gps -> "gps"
    in
    let m = msink cfg [ ("ablation", "A"); ("subroutine", slug) ] in
    let slots = ref [] and rounds = ref [] in
    for k = 0 to cfg.seeds - 1 do
      let rng = rng_for cfg k in
      let g = make rng in
      let algo =
        match algo with
        | `Luby -> Mis.Luby rng
        | `Local_min -> Mis.Local_min
        | `Gps -> Mis.Gps
      in
      let r = Dist_mis.run ~metrics:m ~mis:algo ~variant:Dist_mis.Gbg g in
      slots := float_of_int (Schedule.num_slots r.Dist_mis.schedule) :: !slots;
      rounds := float_of_int r.Dist_mis.stats.Fdlsp_sim.Stats.rounds :: !rounds
    done;
    [ algo_name; Report.f1 (Report.mean !slots); Report.f1 (Report.mean !rounds) ]
  in
  print_string
    (Report.table
       ~header:[ "MIS subroutine"; "slots"; "rounds" ]
       [
         run_mis "Luby (randomized)" `Luby;
         run_mis "local-min id (deterministic)" `Local_min;
         run_mis "GPS (deterministic log*)" `Gps;
       ]);

  Report.section "Ablation B: DFS token policy (Algorithm 2 line 7)";
  let run_policy name policy =
    let slug =
      match policy with Dfs_sched.Max_degree -> "maxdeg" | Dfs_sched.Min_id -> "minid"
    in
    let m = msink cfg [ ("ablation", "B"); ("policy", slug) ] in
    let slots = ref [] and time = ref [] in
    for k = 0 to cfg.seeds - 1 do
      let g = make (rng_for cfg k) in
      let r = Dfs_sched.run ~metrics:m ~policy g in
      slots := float_of_int (Schedule.num_slots r.Dfs_sched.schedule) :: !slots;
      time := float_of_int r.Dfs_sched.stats.Fdlsp_sim.Stats.rounds :: !time
    done;
    [ name; Report.f1 (Report.mean !slots); Report.f1 (Report.mean !time) ]
  in
  print_string
    (Report.table
       ~header:[ "next-hop policy"; "slots"; "async time" ]
       [
         run_policy "max degree (paper)" Dfs_sched.Max_degree;
         run_policy "min id" Dfs_sched.Min_id;
       ]);

  Report.section "Ablation C: randomized distance-1 coloring (Section 5 remark)";
  let run_window window =
    let slots = ref [] and trials = ref [] in
    for k = 0 to cfg.seeds - 1 do
      let rng = rng_for cfg k in
      let g = make rng in
      let r = Randomized.run ~window ~rng g in
      slots := float_of_int (Schedule.num_slots r.Randomized.schedule) :: !slots;
      trials := float_of_int r.Randomized.trials :: !trials
    done;
    [
      string_of_int window;
      Report.f1 (Report.mean !slots);
      Report.f1 (Report.mean !trials);
    ]
  in
  print_string
    (Report.table ~header:[ "window"; "slots"; "trials" ] [ run_window 1; run_window 3; run_window 6 ]);

  Report.section "Ablation D: link vs broadcast scheduling (intro claims; UDG n=150)";
  let link_rx = ref [] and bcast_rx = ref [] and link_slots = ref [] and bcast_slots = ref [] in
  for k = 0 to cfg.seeds - 1 do
    let rng = rng_for cfg k in
    (* resample until connected so convergecast can reach the sink *)
    let rec connected tries =
      let g = fst (Gen.udg rng ~n:150 ~side:9. ~radius:1.3) in
      if Traversal.is_connected g || tries > 50 then g else connected (tries + 1)
    in
    let g = connected 0 in
    if Traversal.is_connected g then begin
      let sched = (Dfs_sched.run g).Dfs_sched.schedule in
      let packets = Array.make (Graph.n g) 1 in
      let l = Tdma.convergecast g sched ~sink:0 ~packets ~max_frames:100_000 in
      let b = Tdma.broadcast_convergecast g ~sink:0 ~packets ~max_frames:100_000 in
      link_rx := float_of_int l.Tdma.rx_slots :: !link_rx;
      bcast_rx := float_of_int b.Tdma.rx_slots :: !bcast_rx;
      link_slots := float_of_int l.Tdma.frame_length :: !link_slots;
      bcast_slots := float_of_int b.Tdma.frame_length :: !bcast_slots
    end
  done;
  print_string
    (Report.table
       ~header:[ "schedule"; "slots/frame"; "rx slot-activations" ]
       [
         [ "link (FDLSP)"; Report.f1 (Report.mean !link_slots); Report.f1 (Report.mean !link_rx) ];
         [ "broadcast"; Report.f1 (Report.mean !bcast_slots); Report.f1 (Report.mean !bcast_rx) ];
       ]);

  Report.section "Ablation E: repair drift under churn (Section 9 future work)";
  let drift = ref [] and fresh = ref [] and local_work = ref [] in
  for k = 0 to cfg.seeds - 1 do
    let rng = rng_for cfg k in
    let g = make rng in
    (* one event per batch, refine off: raw drift, as Churn measures it *)
    let svc = Service.create ~refine:false (Dfs_sched.run g).Dfs_sched.schedule in
    let work = ref 0 in
    for _ = 1 to 20 do
      let n = Service.nodes svc in
      let ev =
        match Random.State.int rng 3 with
        | 0 -> Service.Join { node = n; neighbors = [ Random.State.int rng n ] }
        | 1 -> Service.Leave (Random.State.int rng n)
        | _ ->
            let v = Random.State.int rng n in
            let nbrs = [ Random.State.int rng n ] |> List.filter (fun w -> w <> v) in
            Service.Move { node = v; neighbors = nbrs }
      in
      work := !work + (Service.apply svc [ ev ]).Service.b_recolored
    done;
    drift := float_of_int (Service.num_slots svc) :: !drift;
    fresh :=
      float_of_int (Schedule.num_slots (Dfs_sched.run (Service.graph svc)).Dfs_sched.schedule)
      :: !fresh;
    local_work := float_of_int !work :: !local_work
  done;
  let m = msink cfg [ ("ablation", "E") ] in
  let slots series v =
    Metrics.gauge (Metrics.with_label m "series" series) "fdlsp_bench_slots" v
  in
  slots "patched" (Report.mean !drift);
  slots "fresh" (Report.mean !fresh);
  Metrics.gauge m "fdlsp_bench_recolored_arcs" (Report.mean !local_work);
  print_string
    (Report.table
       ~header:[ "metric"; "value" ]
       [
         [ "slots after 20 patched events"; Report.f1 (Report.mean !drift) ];
         [ "slots from fresh recompute"; Report.f1 (Report.mean !fresh) ];
         [ "arcs recolored across 20 events"; Report.f1 (Report.mean !local_work) ];
       ]);

  Report.section "Ablation F: centralized compaction afterpass (slots before -> after)";
  let compact_gain name schedule_of =
    let before = ref [] and after = ref [] in
    for k = 0 to cfg.seeds - 1 do
      let rng = rng_for cfg k in
      let g = make rng in
      let s = schedule_of rng g in
      let c = Compact.compact s in
      before := float_of_int (Schedule.num_slots s) :: !before;
      after := float_of_int (Schedule.num_slots c) :: !after
    done;
    [ name; Report.f1 (Report.mean !before); Report.f1 (Report.mean !after) ]
  in
  print_string
    (Report.table
       ~header:[ "algorithm"; "slots"; "after compaction" ]
       [
         compact_gain "DistMIS" (fun rng g ->
             (Dist_mis.run ~mis:(Mis.Luby rng) ~variant:Dist_mis.Gbg g).Dist_mis.schedule);
         compact_gain "DFS" (fun _ g -> (Dfs_sched.run g).Dfs_sched.schedule);
         compact_gain "D-MGC" (fun _ g -> (Dmgc.run g).Dmgc.schedule);
       ]);

  Report.section
    "Ablation G: protocol-model schedules under the SINR physical model (UDG n=100, \
     alpha=3, beta=2)";
  let sinr_p = Sinr.default_params in
  let fail_rate = ref [] and extra = ref [] and slots0 = ref [] in
  for k = 0 to cfg.seeds - 1 do
    let rng = rng_for cfg k in
    let g, pts = Gen.udg rng ~n:100 ~side:8. ~radius:1. in
    let sched = (Dfs_sched.run g).Dfs_sched.schedule in
    let r = Sinr.check sinr_p pts g sched in
    let hardened, _ = Sinr.harden sinr_p pts g sched in
    fail_rate :=
      (100. *. float_of_int r.Sinr.failures /. float_of_int (max 1 r.Sinr.receptions))
      :: !fail_rate;
    slots0 := float_of_int (Schedule.num_slots sched) :: !slots0;
    extra :=
      float_of_int (Schedule.num_slots hardened - Schedule.num_slots sched) :: !extra
  done;
  print_string
    (Report.table
       ~header:[ "metric"; "value" ]
       [
         [ "SINR-failed receptions (% of arcs)"; Report.f1 (Report.mean !fail_rate) ];
         [ "protocol slots"; Report.f1 (Report.mean !slots0) ];
         [ "extra slots to harden for SINR"; Report.f1 (Report.mean !extra) ];
       ]);

  Report.section "Ablation H: quasi-UDG robustness (n=150, inner=0.6, p=0.4)";
  let s =
    measure_point cfg
      ~labels:[ ("ablation", "H") ]
      ~variant:Dist_mis.Gbg
      (fun rng -> fst (Gen.qudg rng ~n:150 ~side:10. ~radius:1. ~inner:0.6 ~p:0.4))
  in
  print_string
    (Report.table
       ~header:[ "LB"; "distMIS"; "DFS"; "D-MGC"; "UB" ]
       [
         [
           Report.f1 s.lb;
           Report.f1 s.dist_mis;
           Report.f1 s.dfs;
           Report.f1 s.dmgc;
           Report.f1 s.ub;
         ];
       ]);

  Report.section
    "Ablation I: distributed local repair (Section 9) vs rescheduling from scratch";
  let join_rounds = ref [] and join_msgs = ref [] in
  let full_rounds = ref [] and full_msgs = ref [] in
  for k = 0 to cfg.seeds - 1 do
    let rng = rng_for cfg k in
    let g = make rng in
    let v = Graph.n g - 1 in
    if Graph.degree g v > 0 then begin
      (* v plays the newcomer: its arcs start uncolored *)
      let sched = Schedule.make g in
      let arcs =
        List.filter
          (fun a -> Arc.tail g a <> v && Arc.head g a <> v)
          (List.init (Arc.count g) Fun.id)
      in
      Greedy.extend sched arcs;
      let _, st = Local_update.join g sched ~node:v in
      join_rounds := float_of_int st.Fdlsp_sim.Stats.rounds :: !join_rounds;
      join_msgs := float_of_int st.Fdlsp_sim.Stats.messages :: !join_msgs;
      let full = Dfs_sched.run g in
      full_rounds := float_of_int full.Dfs_sched.stats.Fdlsp_sim.Stats.rounds :: !full_rounds;
      full_msgs := float_of_int full.Dfs_sched.stats.Fdlsp_sim.Stats.messages :: !full_msgs
    end
  done;
  print_string
    (Report.table
       ~header:[ "approach"; "async rounds"; "messages" ]
       [
         [
           "local join protocol";
           Report.f1 (Report.mean !join_rounds);
           Report.f1 (Report.mean !join_msgs);
         ];
         [
           "full DFS reschedule";
           Report.f1 (Report.mean !full_rounds);
           Report.f1 (Report.mean !full_msgs);
         ];
       ])

(* ------------------------------------------------------------------ *)
(* Self-stabilization sweep                                            *)
(* ------------------------------------------------------------------ *)

(* How fast does the maintenance protocol reconverge, and how local are
   its repairs, as the corruption rate climbs?  Corruption rate is blips
   per node over the blip window; each data point averages cfg.seeds
   random graphs, each hit by its own reproducible scatter_blips plan.
   A run counts as converged only if the final schedule validates. *)
let stabilize cfg =
  Report.section
    (Printf.sprintf
       "Self-stabilization sweep: reconvergence lag, repair locality and slot drift \
        vs corruption rate (%d seeds; blips over rounds 1..8)"
       cfg.seeds);
  let rates = if cfg.smoke then [ 0.05; 0.3 ] else [ 0.05; 0.15; 0.3; 0.6 ] in
  let horizon = 8 in
  let families =
    [
      ("udg", fun rng -> fst (Gen.udg rng ~n:40 ~side:6. ~radius:1.));
      ("gnp", fun rng -> Gen.gnp rng ~n:40 ~p:0.08);
    ]
  in
  List.iter
    (fun (fam, make_graph) ->
      let rows =
        List.map
          (fun rate ->
            let m =
              msink cfg [ ("family", fam); ("rate", Printf.sprintf "%.2f" rate) ]
            in
            let all_converged = ref true in
            let reports =
              List.init cfg.seeds (fun k ->
                  let rng = rng_for cfg k in
                  let g = make_graph rng in
                  let n = Graph.n g in
                  let count =
                    int_of_float (Float.round (rate *. float_of_int n))
                  in
                  let seed = cfg.base_seed + (977 * k) + int_of_float (rate *. 1000.) in
                  let faults =
                    Fdlsp_sim.Fault.make ~seed
                      ~blips:(Fdlsp_sim.Fault.scatter_blips ~seed ~n ~count ~horizon ())
                      ()
                  in
                  let sched = (Dfs_sched.run g).Dfs_sched.schedule in
                  let r = Stabilize.run ~faults ~metrics:m g sched in
                  if not r.Stabilize.converged then all_converged := false;
                  r)
            in
            let mean f =
              Report.mean (List.map (fun r -> float_of_int (f r)) reports)
            in
            let corruptions = mean (fun r -> r.Stabilize.corruptions) in
            let lag = mean (fun r -> r.Stabilize.rounds_to_stabilize) in
            let recolorings = mean (fun r -> r.Stabilize.recolorings) in
            let locality = mean (fun r -> r.Stabilize.recolored_arcs) in
            let drift = mean (fun r -> r.Stabilize.final_slots - r.Stabilize.initial_slots) in
            Metrics.gauge m "fdlsp_bench_converged" (if !all_converged then 1. else 0.);
            Metrics.gauge m "fdlsp_bench_stabilize_lag" lag;
            Metrics.gauge m "fdlsp_bench_slot_drift" drift;
            Metrics.gauge m "fdlsp_bench_recolored_arcs" locality;
            [
              Printf.sprintf "%.2f" rate;
              string_of_bool !all_converged;
              Report.f1 corruptions;
              Printf.sprintf "%.2f" lag;
              Report.f1 recolorings;
              Report.f1 locality;
              Printf.sprintf "%.2f" drift;
            ])
          rates
      in
      Printf.printf "%s:\n" fam;
      print_string
        (Report.table
           ~header:
             [
               "rate"; "converged"; "corruptions"; "stabilize_lag"; "recolorings";
               "recolored_arcs"; "slot_drift";
             ]
           rows);
      print_newline ())
    families

(* ------------------------------------------------------------------ *)
(* Frame-runtime sweep                                                 *)
(* ------------------------------------------------------------------ *)

(* What does a schedule cost to *operate*?  Sweep oscillator drift (and
   equal timer jitter) x beacon loss x phase-blip churn over the frame
   runtime and measure the energy left on the table (sleep fraction),
   the resync machinery's work (desyncs, resyncs, join latency) and the
   damage (collisions at awake addressees, abandoned packets).  Trees
   keep every deployment connected and make beacon loss compound along
   forwarding paths, which is the realistic worst case for resync. *)
let frames cfg =
  Report.section
    (Printf.sprintf
       "Frame runtime sweep: energy, resync work and collision damage vs drift x \
        beacon loss x churn (%d seeds; 24-node trees, 16 superframes)"
       cfg.seeds);
  let drifts = if cfg.smoke then [ 0.; 0.01 ] else [ 0.; 0.002; 0.01 ] in
  let losses = if cfg.smoke then [ 0.; 0.3 ] else [ 0.; 0.1; 0.3 ] in
  let churns = [ 0; 2 ] in
  let n = 24 and horizon = 16 in
  let rows =
    List.concat_map
      (fun drift ->
        List.concat_map
          (fun loss ->
            List.map
              (fun churn ->
                let m =
                  msink cfg
                    [
                      ("drift", Printf.sprintf "%g" drift);
                      ("loss", Printf.sprintf "%g" loss);
                      ("churn", string_of_int churn);
                    ]
                in
                let reports =
                  List.init cfg.seeds (fun k ->
                      let g = Gen.random_tree (rng_for cfg k) n in
                      let sched = (Dfs_sched.run g).Dfs_sched.schedule in
                      let brng =
                        Random.State.make [| cfg.base_seed; 0xB11; k; churn |]
                      in
                      let drift_blips =
                        List.init churn (fun _ ->
                            ( 1 + Random.State.int brng (n - 1),
                              2 + Random.State.int brng (horizon / 2) ))
                      in
                      let config =
                        {
                          Frame.default with
                          frames = horizon;
                          warm_start = true;
                          resync_threshold = 4;
                          drift;
                          jitter = drift;
                          beacon_loss = loss;
                          drift_blips;
                          seed = cfg.base_seed + (31 * k);
                        }
                      in
                      Frame.run ~config ~metrics:m g sched)
                in
                let meanf f = Report.mean (List.map f reports) in
                let sleep = meanf (fun r -> r.Frame.r_sleep_fraction) in
                let latency = meanf (fun r -> r.Frame.r_join_latency) in
                let desyncs = meanf (fun r -> float_of_int r.Frame.r_desyncs) in
                let resyncs = meanf (fun r -> float_of_int r.Frame.r_resyncs) in
                let collisions =
                  meanf (fun r -> float_of_int r.Frame.r_collisions)
                in
                let gave_up = meanf (fun r -> float_of_int r.Frame.r_gave_up) in
                let synced =
                  meanf (fun r -> float_of_int r.Frame.r_synced_end)
                in
                Metrics.gauge m "fdlsp_bench_frame_sleep_fraction" sleep;
                Metrics.gauge m "fdlsp_bench_frame_join_latency" latency;
                Metrics.gauge m "fdlsp_bench_frame_resync" resyncs;
                Metrics.gauge m "fdlsp_bench_frame_collisions" collisions;
                Metrics.gauge m "fdlsp_bench_frame_gave_up" gave_up;
                Metrics.gauge m "fdlsp_bench_frame_synced" synced;
                [
                  Printf.sprintf "%g" drift;
                  Printf.sprintf "%g" loss;
                  string_of_int churn;
                  Printf.sprintf "%.3f" sleep;
                  Report.f1 latency;
                  Report.f1 desyncs;
                  Report.f1 resyncs;
                  Report.f1 collisions;
                  Report.f1 gave_up;
                  Report.f1 synced;
                ])
              churns)
          losses)
      drifts
  in
  print_string
    (Report.table
       ~header:
         [
           "drift"; "loss"; "churn"; "sleep"; "join_lat"; "desyncs"; "resyncs";
           "collisions"; "gave_up"; "synced";
         ]
       rows);
  print_newline ()
