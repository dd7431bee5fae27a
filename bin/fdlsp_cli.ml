(* fdlsp: command-line front end.

   Subcommands:
     gen       - generate a workload graph and print/save it
     schedule  - run a scheduling algorithm and report the schedule
     bounds    - print the paper's lower/upper bounds
     dot       - graphviz export
     faults    - run a scheduler over a lossy/crashing network
     stabilize - corrupt a schedule in flight and reconverge
     frames    - run a schedule as a realistic TDMA superframe
     trace     - record / replay-check / summarize event traces
     metrics   - run an algorithm and dump its metrics registry
     serve     - long-lived scheduling service over a churn stream
     profile   - run an algorithm under the causal span profiler
     doctor    - pretty-print a flight-recorder crash dump *)

open Cmdliner
open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core
module Metrics = Fdlsp_sim.Metrics
module Span = Fdlsp_sim.Span
module Flight = Fdlsp_sim.Flight

(* --- shared argument parsing --------------------------------------- *)

(* Malformed or out-of-range numeric arguments die with a uniform
   one-line usage error and exit code 2, across every subcommand —
   scriptable, unlike cmdliner's default CLI-error path. *)
let die_usage msg =
  prerr_endline ("fdlsp: usage error: " ^ msg);
  exit 2

let checked ~parse ~show ~pp ~expects ?min ?max what =
  let parse s =
    match parse s with
    | None -> die_usage (Printf.sprintf "%s expects %s, got %S" what expects s)
    | Some v ->
        let bound op lo ok =
          if not ok then
            die_usage (Printf.sprintf "%s must be %s %s, got %s" what op (show lo) (show v))
        in
        Option.iter (fun lo -> bound ">=" lo (v >= lo)) min;
        Option.iter (fun hi -> bound "<=" hi (v <= hi)) max;
        Ok v
  in
  Arg.conv (parse, pp)

let checked_int =
  checked ~parse:int_of_string_opt ~show:string_of_int ~pp:Format.pp_print_int
    ~expects:"an integer"

let checked_float =
  checked
    ~parse:(fun s ->
      match float_of_string_opt s with Some v when not (Float.is_nan v) -> Some v | _ -> None)
    ~show:(Printf.sprintf "%g") ~pp:Format.pp_print_float ~expects:"a number"

let prob what = checked_float ~min:0. ~max:1. what

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt (checked_int "--seed") 42 & info [ "seed" ] ~doc)

let verbose_arg =
  let doc = "Log the algorithms' internal progress to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let domains_arg =
  let doc =
    "Shard the synchronous engine over $(docv) OCaml domains (distmis variants; 1 = \
     sequential).  Results are bit-identical to the sequential engine; randomized MIS \
     priorities switch from the shared-RNG Luby draw to hashed per-(node, phase) draws \
     so they stay independent of step order."
  in
  Arg.(value & opt (checked_int ~min:1 "--domains") 1 & info [ "domains" ] ~docv:"N" ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let out_arg =
  let doc = "Write output to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let emit out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

type spec =
  | Udg of int * float * float
  | Qudg of int * float * float * float * float
  | Gnm of int * int
  | Gnp of int * float
  | Tree of int
  | Complete of int
  | Bipartite of int * int
  | Cycle of int
  | Path of int
  | Grid of int * int

let spec_conv =
  let parse s =
    let fail () =
      die_usage
        (Printf.sprintf
           "cannot parse graph spec %S (try udg:n,side,radius | qudg:n,side,radius,inner,p | gnm:n,m | gnp:n,p | \
            tree:n | complete:n | bipartite:a,b | cycle:n | path:n | grid:r,c)"
           s)
    in
    match String.split_on_char ':' s with
    | [ kind; args ] -> (
        let parts = String.split_on_char ',' args in
        try
          match (kind, parts) with
          | "udg", [ n; side; r ] ->
              Ok (Udg (int_of_string n, float_of_string side, float_of_string r))
          | "qudg", [ n; side; r; inner; p ] ->
              Ok
                (Qudg
                   ( int_of_string n,
                     float_of_string side,
                     float_of_string r,
                     float_of_string inner,
                     float_of_string p ))
          | "gnm", [ n; m ] -> Ok (Gnm (int_of_string n, int_of_string m))
          | "gnp", [ n; p ] -> Ok (Gnp (int_of_string n, float_of_string p))
          | "tree", [ n ] -> Ok (Tree (int_of_string n))
          | "complete", [ n ] -> Ok (Complete (int_of_string n))
          | "bipartite", [ a; b ] -> Ok (Bipartite (int_of_string a, int_of_string b))
          | "cycle", [ n ] -> Ok (Cycle (int_of_string n))
          | "path", [ n ] -> Ok (Path (int_of_string n))
          | "grid", [ r; c ] -> Ok (Grid (int_of_string r, int_of_string c))
          | _ -> fail ()
        with Failure _ -> fail ())
    | _ -> fail ()
  in
  let print ppf _ = Format.fprintf ppf "<graph spec>" in
  Arg.conv (parse, print)

let build_spec seed = function
  | Udg (n, side, radius) -> fst (Gen.udg (Random.State.make [| seed |]) ~n ~side ~radius)
  | Qudg (n, side, radius, inner, p) ->
      fst (Gen.qudg (Random.State.make [| seed |]) ~n ~side ~radius ~inner ~p)
  | Gnm (n, m) -> Gen.gnm (Random.State.make [| seed |]) ~n ~m
  | Gnp (n, p) -> Gen.gnp (Random.State.make [| seed |]) ~n ~p
  | Tree n -> Gen.random_tree (Random.State.make [| seed |]) n
  | Complete n -> Gen.complete n
  | Bipartite (a, b) -> Gen.complete_bipartite a b
  | Cycle n -> Gen.cycle n
  | Path n -> Gen.path n
  | Grid (r, c) -> Gen.grid r c

let spec_opt_arg =
  let doc =
    "Generate the input graph: udg:n,side,radius | gnm:n,m | gnp:n,p | tree:n | \
     complete:n | bipartite:a,b | cycle:n | path:n | grid:r,c."
  in
  Arg.(value & opt (some spec_conv) None & info [ "g"; "generate" ] ~docv:"SPEC" ~doc)

let input_opt_arg =
  let doc = "Read the input graph from $(docv) ('n m' header + edge lines)." in
  Arg.(value & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let graph_source =
  let spec = spec_opt_arg in
  let file = input_opt_arg in
  let combine spec file seed =
    match (spec, file) with
    | Some s, None -> Ok (build_spec seed s)
    | None, Some path -> ( try Ok (Io.read_file path) with Failure m -> Error m)
    | None, None -> Error "one of --generate or --input is required"
    | Some _, Some _ -> Error "--generate and --input are mutually exclusive"
  in
  Term.(const combine $ spec $ file $ seed_arg)

let or_die = function
  | Ok v -> v
  | Error m ->
      prerr_endline ("fdlsp: " ^ m);
      exit 1

(* Library entry points reject bad parameter combinations with
   [Invalid_argument], and the serve loop raises [Server.Error] on a
   failed startup or batch; both are user errors too. *)
let guard f = try f () with Invalid_argument m | Server.Error m -> or_die (Error m)

let rate_arg ?(default = 0.) name doc =
  Arg.(value & opt (prob ("--" ^ name)) default & info [ name ] ~docv:"P" ~doc)

let timeout_arg doc =
  Arg.(
    value
    & opt (checked_float ~min:1e-6 "--timeout")
        Fdlsp_sim.Reliable.default.Fdlsp_sim.Reliable.timeout
    & info [ "timeout" ] ~docv:"T" ~doc)

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let load_trace path =
  try Fdlsp_sim.Trace.load path with Failure m -> or_die (Error m)

let meta_int meta k = Option.bind (List.assoc_opt k meta) int_of_string_opt
let meta_float meta k = Option.bind (List.assoc_opt k meta) float_of_string_opt

let replay_failed out m =
  emit out (Printf.sprintf "replay=FAILED %s\n" m);
  exit 2

(* --- gen ------------------------------------------------------------ *)

let gen_cmd =
  let run graph out =
    let g = or_die graph in
    emit out (Io.to_string g)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a workload graph")
    Term.(const run $ graph_source $ out_arg)

(* --- algorithms ------------------------------------------------------ *)

type algo = Dist_gbg | Dist_general | Dist_gps | Dfs | Dmgc | Greedy_a | Random_a | Exact

let algos =
  [
    ("distmis", Dist_gbg);
    ("distmis-general", Dist_general);
    ("distmis-gps", Dist_gps);
    ("dfs", Dfs);
    ("dmgc", Dmgc);
    ("greedy", Greedy_a);
    ("randomized", Random_a);
    ("exact", Exact);
  ]

let algo_name a = fst (List.find (fun (_, a') -> a' = a) algos)

(* The subset of [algos] a subcommand accepts, in the order given. *)
let only names = List.map (fun n -> (n, List.assoc n algos)) names

let algo_arg ~doc ~default table =
  let doc = Printf.sprintf "%s: %s." doc (String.concat " | " (List.map fst table)) in
  Arg.(value & opt (enum table) default & info [ "a"; "algo" ] ~doc)

let run_algo ?faults ?reliable ?trace ?(metrics = Metrics.null) ?(spans = Span.null)
    ?(domains = 1) algo seed g =
  let rng () = Random.State.make [| seed; 0xA5 |] in
  (* multi-domain runs swap Luby's shared-RNG priorities for hashed
     per-(node, phase) draws: same algorithm family, but every draw is
     independent of engine step order, so the parallel engine reproduces
     the sequential run bit for bit *)
  let mis_random () = if domains > 1 then Mis.Hashed seed else Mis.Luby (rng ()) in
  (* the engine carries the fault plan; lossy plans fall back to the
     sequential ARQ synchronizer inside the runner *)
  let engine =
    if domains <= 1 then None
    else Some (Fdlsp_sim.Parallel.runner ?faults ?config:reliable ~spans ~domains ())
  in
  let dist_mis mis variant =
    let r = Dist_mis.run ?faults ?reliable ?engine ?trace ~metrics ~spans ~mis ~variant g in
    (r.Dist_mis.schedule, Some r.Dist_mis.stats)
  in
  Metrics.timed metrics "fdlsp_run" (fun () ->
      Span.span spans "run" @@ fun () ->
      match algo with
      | Dist_gbg -> dist_mis (mis_random ()) Dist_mis.Gbg
      | Dist_general -> dist_mis (mis_random ()) Dist_mis.General
      | Dist_gps -> dist_mis Mis.Gps Dist_mis.Gbg
      | Dfs ->
          let r = Dfs_sched.run ?faults ?reliable ?trace ~metrics ~spans g in
          (r.Dfs_sched.schedule, Some r.Dfs_sched.stats)
      | Dmgc ->
          let r = Dmgc.run ?trace ~metrics ~spans g in
          (r.Dmgc.schedule, Some r.Dmgc.stats)
      | Greedy_a -> Span.span spans "greedy" (fun () -> (Greedy.color g, None))
      | Random_a ->
          let r = Span.span spans "randomized" (fun () -> Randomized.run ~rng:(rng ()) g) in
          (* sequential reference algorithm: stats are a model, so record
             them directly like the other engine-less paths *)
          Metrics.add_stats
            (Metrics.with_label (Metrics.with_label metrics "algo" "randomized") "engine"
               "model")
            r.Randomized.stats;
          (r.Randomized.schedule, Some r.Randomized.stats)
      | Exact ->
          let r = Span.span spans "exact" (fun () -> Dsatur.fdlsp_optimal g) in
          (Schedule.of_colors g r.Dsatur.coloring, None))

(* Metrics export format.  A hand-rolled conv (not [Arg.enum]) so a bad
   value dies through [die_usage] with exit 2 like every other argument
   error. *)
let metrics_format_conv =
  let parse s =
    match s with
    | "kv" -> Ok `Kv
    | "json" -> Ok `Json
    | "prom" -> Ok `Prom
    | _ -> die_usage (Printf.sprintf "--metrics format expects kv, json or prom, got %S" s)
  in
  let print ppf f =
    Format.pp_print_string ppf (match f with `Kv -> "kv" | `Json -> "json" | `Prom -> "prom")
  in
  Arg.conv (parse, print)

let metrics_dump fmt reg =
  match fmt with
  | `Kv -> Metrics.to_kv reg
  | `Json -> Metrics.to_json reg ^ "\n"
  | `Prom -> Metrics.to_prometheus reg

(* --- schedule -------------------------------------------------------- *)

let schedule_cmd =
  let algo = algo_arg ~doc:"Algorithm" ~default:Dfs algos in
  let show =
    let doc = "Print the full slot table." in
    Arg.(value & flag & info [ "show-slots" ] ~doc)
  in
  let save =
    let doc = "Also write the schedule itself to $(docv) (see 'validate')." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let metrics_fmt =
    let doc = "Append the run's metrics registry in $(docv) format (kv | json | prom)." in
    Arg.(value & opt (some metrics_format_conv) None & info [ "metrics" ] ~docv:"FMT" ~doc)
  in
  let run graph algo seed domains show out save metrics_fmt verbose =
    setup_logs verbose;
    let g = or_die graph in
    let reg = Metrics.create () in
    let sched, stats = run_algo ~metrics:(Metrics.sink reg) ~domains algo seed g in
    let sched = Schedule.normalize sched in
    Option.iter (fun path -> Schedule.write_file path sched) save;
    let buf = Buffer.create 256 in
    Printf.bprintf buf "nodes=%d edges=%d max_degree=%d avg_degree=%.2f\n" (Graph.n g)
      (Graph.m g) (Graph.max_degree g) (Graph.avg_degree g);
    Printf.bprintf buf "slots=%d lower_bound=%d upper_bound=%d valid=%b\n"
      (Schedule.num_slots sched) (Bounds.lower g) (Bounds.upper g) (Schedule.valid sched);
    Option.iter
      (fun s -> Buffer.add_string buf (Format.asprintf "%a\n" Fdlsp_sim.Stats.pp_kv s))
      stats;
    if show then Buffer.add_string buf (Format.asprintf "%a" Schedule.pp sched);
    Option.iter (fun fmt -> Buffer.add_string buf (metrics_dump fmt reg)) metrics_fmt;
    emit out (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run a TDMA link scheduling algorithm")
    Term.(
      const run $ graph_source $ algo $ seed_arg $ domains_arg $ show $ out_arg $ save
      $ metrics_fmt $ verbose_arg)

(* --- faults ----------------------------------------------------------- *)

let faults_cmd =
  let algo =
    algo_arg ~doc:"Algorithm to run over the faulty network" ~default:Dfs
      (only [ "dfs"; "distmis"; "distmis-general" ])
  in
  let drop = rate_arg ~default:0.1 "drop" "Per-transmission drop probability." in
  let duplicate = rate_arg "duplicate" "Per-transmission duplication probability." in
  let reorder = rate_arg "reorder" "Probability a copy escapes FIFO ordering." in
  let corrupt =
    rate_arg "corrupt" "Per-transmission corruption (checksum-failure) probability."
  in
  let crashes =
    let doc =
      "After scheduling, crash $(docv) random nodes one at a time and patch the \
       schedule with local repair; each node recovers after the whole batch has \
       failed, measuring slot drift and repair locality."
    in
    Arg.(value & opt (checked_int ~min:0 "--crashes") 0 & info [ "crashes" ] ~docv:"K" ~doc)
  in
  let timeout = timeout_arg "Retransmission timeout of the reliable layer (time units/rounds)." in
  let json = json_arg "Emit a JSON report instead of key=value lines." in
  let run graph algo seed domains drop duplicate reorder corrupt crashes timeout json out
      verbose =
    setup_logs verbose;
    let g = or_die graph in
    let open Fdlsp_sim in
    let plan = guard (fun () -> Fault.uniform ~seed ~duplicate ~reorder ~corrupt drop) in
    let reliable = { Reliable.default with Reliable.timeout } in
    (* every algorithm [faults] accepts reports stats *)
    let run_one faults =
      let sched, stats = run_algo ?faults ~reliable ~domains algo seed g in
      (sched, Option.get stats)
    in
    let algo_name = algo_name algo in
    let _, base_stats = guard (fun () -> run_one None) in
    let sched, stats = guard (fun () -> run_one (Some plan)) in
    let sched = Schedule.normalize sched in
    let valid = Result.is_ok (Schedule.validate sched) in
    let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b in
    let churn =
      if crashes <= 0 then None
      else begin
        let n = Graph.n g in
        let k = min crashes n in
        let crash_rng = Random.State.make [| seed; 0xC4A5 |] in
        (* k distinct victims, crashing at t = 1..k and all recovering
           once the whole batch is down *)
        let victims = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int crash_rng (i + 1) in
          let tmp = victims.(i) in
          victims.(i) <- victims.(j);
          victims.(j) <- tmp
        done;
        let crash_list =
          List.init k (fun i ->
              { Fault.node = victims.(i);
                at = float_of_int (i + 1);
                until = Some (float_of_int (k + i + 1)) })
        in
        Some (Churn.run sched (Fault.make ~seed ~crashes:crash_list ()))
      end
    in
    let buf = Buffer.create 512 in
    if json then begin
      Printf.bprintf buf
        "{\"algo\":%S,\"nodes\":%d,\"edges\":%d,\"drop\":%g,\"duplicate\":%g,\
         \"reorder\":%g,\"corrupt\":%g,\"slots\":%d,\"valid\":%b,\
         \"baseline\":%s,\"faulty\":%s,\"round_overhead\":%.4f,\
         \"message_overhead\":%.4f"
        algo_name (Graph.n g) (Graph.m g) drop duplicate reorder corrupt
        (Schedule.num_slots sched) valid (Stats.to_json base_stats) (Stats.to_json stats)
        (ratio stats.Stats.rounds base_stats.Stats.rounds)
        (ratio stats.Stats.messages base_stats.Stats.messages);
      Option.iter (fun r -> Printf.bprintf buf ",\"churn\":%s" (Churn.report_to_json r)) churn;
      Buffer.add_string buf "}\n"
    end
    else begin
      Printf.bprintf buf "algo=%s nodes=%d edges=%d drop=%g duplicate=%g reorder=%g corrupt=%g\n"
        algo_name (Graph.n g) (Graph.m g) drop duplicate reorder corrupt;
      Buffer.add_string buf (Format.asprintf "baseline: %a\n" Stats.pp_kv base_stats);
      Buffer.add_string buf (Format.asprintf "faulty:   %a\n" Stats.pp_kv stats);
      Printf.bprintf buf "slots=%d valid=%b round_overhead=%.2f message_overhead=%.2f\n"
        (Schedule.num_slots sched) valid
        (ratio stats.Stats.rounds base_stats.Stats.rounds)
        (ratio stats.Stats.messages base_stats.Stats.messages);
      Option.iter
        (fun r -> Buffer.add_string buf (Format.asprintf "%a\n" Churn.pp_report r))
        churn
    end;
    emit out (Buffer.contents buf);
    if not valid then exit 2
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a scheduler over a faulty network and patch crash damage locally")
    Term.(
      const run $ graph_source $ algo $ seed_arg $ domains_arg $ drop $ duplicate
      $ reorder $ corrupt $ crashes $ timeout $ json $ out_arg $ verbose_arg)

(* --- stabilize --------------------------------------------------------- *)

let blips_arg =
  let doc = "Number of state-corruption blips to scatter over the network." in
  Arg.(value & opt (checked_int ~min:0 "--blips") 8 & info [ "blips" ] ~docv:"K" ~doc)

let blip_horizon_arg =
  let doc = "Blips strike at rounds 1..$(docv) (uniformly at random)." in
  Arg.(value & opt (checked_int ~min:1 "--blip-horizon") 8 & info [ "blip-horizon" ] ~docv:"H" ~doc)

let stabilize_cmd =
  let drop =
    rate_arg "drop" "Per-transmission drop probability (loss composed with corruption)."
  in
  let duplicate = rate_arg "duplicate" "Per-transmission duplication probability." in
  let rounds =
    let doc = "Heartbeat horizon; default: last blip time plus settle slack." in
    Arg.(value & opt (some (checked_int ~min:1 "--rounds")) None & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let timeout = timeout_arg "Retransmission timeout of the reliable layer (lossy runs only)." in
  let json = json_arg "Emit a JSON report instead of a key=value line." in
  let run graph seed blips horizon drop duplicate rounds timeout json out verbose =
    setup_logs verbose;
    let g = or_die graph in
    let open Fdlsp_sim in
    let faults =
      guard (fun () ->
          Fault.make ~seed
            ~default_link:(Fault.lossy ~duplicate drop)
            ~blips:(Fault.scatter_blips ~seed ~n:(Graph.n g) ~count:blips ~horizon ())
            ())
    in
    let config = { Reliable.default with Reliable.timeout } in
    let sched = (Dfs_sched.run g).Dfs_sched.schedule in
    let r = guard (fun () -> Stabilize.run ~faults ~reliable:config ?rounds g sched) in
    if json then emit out (Stabilize.report_to_json r ^ "\n")
    else emit out (Format.asprintf "%a\n" Stabilize.pp_report r);
    if not r.Stabilize.converged then exit 1
  in
  Cmd.v
    (Cmd.info "stabilize"
       ~doc:
         "Schedule a graph, corrupt node state in flight, and let the self-stabilizing \
          maintenance protocol reconverge (exit 1 if it does not)")
    Term.(
      const run $ graph_source $ seed_arg $ blips_arg $ blip_horizon_arg $ drop $ duplicate
      $ rounds $ timeout $ json $ out_arg $ verbose_arg)

(* --- frames ------------------------------------------------------------ *)

let frames_cmd =
  let frames_arg =
    let doc = "Superframes to run." in
    Arg.(value & opt (checked_int ~min:1 "--frames") 20 & info [ "frames" ] ~docv:"N" ~doc)
  in
  let master_arg =
    let doc = "Beacon master (the network's time reference)." in
    Arg.(value & opt (checked_int ~min:0 "--master") 0 & info [ "master" ] ~docv:"V" ~doc)
  in
  let drift_arg =
    let doc = "Max relative clock-rate error of the slave oscillators." in
    Arg.(value & opt (checked_float ~min:0. ~max:0.49 "--drift") 0. & info [ "drift" ] ~docv:"P" ~doc)
  in
  let jitter_arg =
    let doc = "Per-slot timer jitter fraction." in
    Arg.(value & opt (checked_float ~min:0. ~max:0.49 "--jitter") 0. & info [ "jitter" ] ~docv:"P" ~doc)
  in
  let loss_arg =
    let doc = "Per-link beacon erasure probability." in
    Arg.(value & opt (prob "--beacon-loss") 0. & info [ "beacon-loss" ] ~docv:"P" ~doc)
  in
  let threshold_arg =
    let doc = "Consecutive missed beacons before a node desyncs." in
    Arg.(
      value
      & opt (checked_int ~min:1 "--resync-threshold") 5
      & info [ "resync-threshold" ] ~docv:"K" ~doc)
  in
  let retries_arg =
    let doc = "Data retransmissions per packet before giving up." in
    Arg.(value & opt (checked_int ~min:0 "--max-retries") 3 & info [ "max-retries" ] ~docv:"R" ~doc)
  in
  let slot_arg =
    let doc = "Slot duration in time units; default fits the beacon flood." in
    Arg.(
      value
      & opt (some (checked_float ~min:2. "--slot-duration")) None
      & info [ "slot-duration" ] ~docv:"D" ~doc)
  in
  let warm_arg =
    let doc = "Start every node synced (lab bring-up) instead of joining at runtime." in
    Arg.(value & flag & info [ "warm" ] ~doc)
  in
  let blip_conv =
    let parse s =
      let fail () =
        die_usage
          (Printf.sprintf "--blip expects NODE:FRAME (node >= 0, frame >= 1), got %S" s)
      in
      match String.split_on_char ':' s with
      | [ v; f ] -> (
          match (int_of_string_opt v, int_of_string_opt f) with
          | Some v, Some f when v >= 0 && f >= 1 -> Ok (v, f)
          | _ -> fail ())
      | _ -> fail ()
    in
    Arg.conv (parse, fun ppf (v, f) -> Format.fprintf ppf "%d:%d" v f)
  in
  let blips_arg =
    let doc = "Corrupt the node's slot phase at that frame boundary (repeatable)." in
    Arg.(value & opt_all blip_conv [] & info [ "blip" ] ~docv:"NODE:FRAME" ~doc)
  in
  let record_arg =
    let doc = "Record the run's JSONL event trace to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-verify a recorded frame trace in $(docv) instead of running: beacon losses, \
       desyncs, joins and resync lag must obey the protocol's discipline (the thresholds \
       come from the trace header).  No graph arguments needed."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let stabilize_flag =
    let doc =
      "Replay the run's desyncs into the self-stabilizing maintenance protocol as \
       Stale_phase state corruptions (exit 1 if it fails to reconverge)."
    in
    Arg.(value & flag & info [ "stabilize" ] ~doc)
  in
  let json = json_arg "Emit a JSON report instead of a key=value line." in
  let run graph seed frames master drift jitter beacon_loss resync_threshold max_retries
      slot_duration warm blips record replay stabilize json out verbose =
    setup_logs verbose;
    let open Fdlsp_sim in
    match replay with
    | Some path ->
        let file = load_trace path in
        let meta = file.Trace.meta in
        (match
           Trace.Replay.check_frames
             ?resync_threshold:(meta_int meta "resync_threshold")
             ?frame_time:(meta_float meta "frame_time")
             ?frame_length:(meta_int meta "frame_length") file.Trace.events
         with
        | Ok f ->
            emit out
              (Printf.sprintf
                 "replay=ok kind=frames events=%d beacon_losses=%d desyncs=%d resyncs=%d \
                  joins=%d sleeps=%d max_lag=%g synced_end=%b\n"
                 f.Trace.Replay.f_events f.Trace.Replay.f_beacon_losses
                 f.Trace.Replay.f_desyncs f.Trace.Replay.f_resyncs f.Trace.Replay.f_joins
                 f.Trace.Replay.f_sleeps f.Trace.Replay.f_max_lag
                 f.Trace.Replay.f_synced_end)
        | Error m -> replay_failed out m)
    | None ->
        let g = or_die graph in
        let config =
          {
            Frame.frames;
            master;
            slot_duration;
            drift;
            jitter;
            beacon_loss;
            resync_threshold;
            max_retries;
            warm_start = warm;
            drift_blips = blips;
            seed;
          }
        in
        let sched = (Dfs_sched.run g).Dfs_sched.schedule in
        (* the trace header carries what a graph-free replay needs; the
           frame-time bound gets the drift+jitter stretch as slack *)
        let frame_len = Schedule.num_slots (Schedule.normalize sched) + 2 in
        let dur =
          match slot_duration with
          | Some d -> d
          | None -> Float.max 4. (float_of_int (Traversal.eccentricity g master + 2))
        in
        let frame_time = float_of_int frame_len *. dur *. (1. +. drift +. jitter) in
        let writer =
          Option.map
            (fun path ->
              Trace.open_writer
                ~meta:
                  [
                    ("algo", "frames");
                    ("n", string_of_int (Graph.n g));
                    ("m", string_of_int (Graph.m g));
                    ("frames", string_of_int frames);
                    ("resync_threshold", string_of_int resync_threshold);
                    ("frame_length", string_of_int frame_len);
                    ("frame_time", Printf.sprintf "%g" frame_time);
                    ("seed", string_of_int seed);
                  ]
                path)
            record
        in
        let trace = Option.fold ~none:Trace.null ~some:Trace.writer_sink writer in
        let r = guard (fun () -> Frame.run ~config ~trace g sched) in
        Option.iter (fun w -> Trace.close_writer ~stats:r.Frame.r_stats w) writer;
        let buf = Buffer.create 256 in
        if json then Buffer.add_string buf (Frame.report_to_json r ^ "\n")
        else Buffer.add_string buf (Format.asprintf "%a\n" Frame.pp_report r);
        let failed = ref false in
        if stabilize then begin
          match Frame.stale_phase_blips r with
          | [] -> Buffer.add_string buf "stabilize=skipped (no desyncs to replay)\n"
          | sblips ->
              let plan = guard (fun () -> Fault.make ~seed ~blips:sblips ()) in
              let sr = guard (fun () -> Stabilize.run ~faults:plan g sched) in
              Buffer.add_string buf (Format.asprintf "%a\n" Stabilize.pp_report sr);
              if not sr.Stabilize.converged then failed := true
        end;
        emit out (Buffer.contents buf);
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "frames"
       ~doc:
         "Execute a schedule as a realistic TDMA superframe — drifting clocks, SYNC \
          beacons, JOIN handshake, duty-cycled radios, bounded-retry ACK — or \
          re-verify a recorded frame trace")
    Term.(
      const run $ graph_source $ seed_arg $ frames_arg $ master_arg $ drift_arg
      $ jitter_arg $ loss_arg $ threshold_arg $ retries_arg $ slot_arg $ warm_arg
      $ blips_arg $ record_arg $ replay_arg $ stabilize_flag $ json $ out_arg
      $ verbose_arg)

(* --- trace ------------------------------------------------------------ *)

let trace_cmd =
  (* [None] is the self-stabilization run, which is not a scheduler *)
  let algo =
    algo_arg ~doc:"Algorithm to trace" ~default:(Some Dist_gbg)
      (List.map
         (fun (n, a) -> (n, Some a))
         (only [ "distmis"; "distmis-general"; "dfs"; "dmgc" ])
      @ [ ("stabilize", None) ])
  in
  let drop = rate_arg ~default:0.1 "drop" "Per-transmission drop probability." in
  let duplicate = rate_arg "duplicate" "Per-transmission duplication probability." in
  let reorder = rate_arg "reorder" "Probability a copy escapes FIFO ordering." in
  let corrupt = rate_arg "corrupt" "Per-transmission corruption probability." in
  let replay =
    let doc =
      "Re-validate the recorded trace in $(docv) instead of recording: decisions must \
       be conflict-free, accounting must reconcile with the recorded stats, crash \
       windows must match the fault plan.  Requires the same graph arguments the \
       trace was recorded with."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let summary =
    let doc = "Print per-phase breakdowns of the recorded trace in $(docv)." in
    Arg.(value & opt (some string) None & info [ "summary" ] ~docv:"FILE" ~doc)
  in
  let json = json_arg "Emit the summary as JSON instead of key=value lines." in
  let run graph algo seed drop duplicate reorder corrupt blips bhorizon replay summary json
      out verbose =
    setup_logs verbose;
    let open Fdlsp_sim in
    match (replay, summary) with
    | Some _, Some _ -> or_die (Error "--replay and --summary are mutually exclusive")
    | None, Some path ->
        let file = load_trace path in
        let s = Trace.Summary.of_events file.Trace.events in
        if json then emit out (Trace.Summary.to_json s ^ "\n")
        else emit out (Format.asprintf "%a" Trace.Summary.pp s)
    | Some path, None -> (
        let g = or_die graph in
        let file = load_trace path in
        let meta = file.Trace.meta in
        let require what key actual =
          match meta_int meta key with
          | Some recorded when recorded <> actual ->
              or_die
                (Error
                   (Printf.sprintf
                      "trace was recorded on a %d-%s graph, but the given graph has %d \
                       %ss (same --generate/--input and --seed required)"
                      recorded what actual what))
          | _ -> ()
        in
        require "node" "n" (Graph.n g);
        require "edge" "m" (Graph.m g);
        match List.assoc_opt "algo" meta with
        | Some "stabilize" -> (
            (* a self-stabilization trace: regenerate the blip plan from
               the recorded (seed, count, horizon) metadata and verify
               locality, plan conformance, and reconvergence *)
            let count = Option.value (meta_int meta "blips") ~default:0 in
            let bseed = Option.value (meta_int meta "blip_seed") ~default:0 in
            let bh =
              match meta_int meta "blip_horizon" with Some h when h >= 1 -> h | _ -> 1
            in
            let plan =
              if count > 0 && Graph.n g > 0 then
                Some
                  (Fault.make ~seed:bseed
                     ~blips:
                       (Fault.scatter_blips ~seed:bseed ~n:(Graph.n g) ~count ~horizon:bh ())
                     ())
              else None
            in
            match Trace.Replay.check_stabilize ?plan g file.Trace.events with
            | Ok r ->
                emit out
                  (Printf.sprintf
                     "replay=ok kind=stabilize events=%d corruptions=%d detects=%d \
                      recolorings=%d recolored_arcs=%d rounds_to_stabilize=%d slots=%d\n"
                     r.Trace.Replay.s_events r.Trace.Replay.s_corruptions
                     r.Trace.Replay.s_detects r.Trace.Replay.s_recolorings
                     r.Trace.Replay.s_recolored_arcs r.Trace.Replay.s_rounds_to_stabilize
                     (Schedule.num_slots r.Trace.Replay.s_schedule))
            | Error m -> replay_failed out m)
        | _ -> (
            let rate k = Option.value (meta_float meta k) ~default:0. in
            let plan =
              Option.map
                (fun seed ->
                  Fault.uniform ~seed ~duplicate:(rate "duplicate") ~reorder:(rate "reorder")
                    ~corrupt:(rate "corrupt") (rate "drop"))
                (meta_int meta "fault_seed")
            in
            match
              Trace.Replay.check ?plan ?stats:file.Trace.stats ~require_complete:true g
                file.Trace.events
            with
            | Ok r ->
                emit out
                  (Printf.sprintf
                     "replay=ok events=%d colors=%d mis_joins=%d retransmit_events=%d \
                      crash_events=%d slots=%d\n"
                     r.Trace.Replay.events r.Trace.Replay.colors r.Trace.Replay.mis_joins
                     r.Trace.Replay.retransmit_events r.Trace.Replay.crash_events
                     (Schedule.num_slots r.Trace.Replay.schedule))
            | Error m -> replay_failed out m))
    | None, None ->
        (* record *)
        let g = or_die graph in
        let lossy = drop > 0. || duplicate > 0. || reorder > 0. || corrupt > 0. in
        let faults =
          if lossy then
            Some (guard (fun () -> Fault.uniform ~seed ~duplicate ~reorder ~corrupt drop))
          else None
        in
        let algo_name = match algo with Some a -> algo_name a | None -> "stabilize" in
        let meta =
          [
            ("algo", algo_name);
            ("n", string_of_int (Graph.n g));
            ("m", string_of_int (Graph.m g));
          ]
          @ (if lossy then
               [
                 ("fault_seed", string_of_int seed);
                 ("drop", Printf.sprintf "%g" drop);
                 ("duplicate", Printf.sprintf "%g" duplicate);
                 ("reorder", Printf.sprintf "%g" reorder);
                 ("corrupt", Printf.sprintf "%g" corrupt);
               ]
             else [])
          @
          if algo = None then
            [
              ("blip_seed", string_of_int seed);
              ("blips", string_of_int blips);
              ("blip_horizon", string_of_int bhorizon);
            ]
          else []
        in
        let writer =
          match out with
          | None -> Trace.writer_to_channel ~meta stdout
          | Some path -> Trace.open_writer ~meta path
        in
        let trace = Trace.writer_sink writer in
        let stats =
          guard (fun () ->
              match algo with
              | Some a ->
                  let _, stats = run_algo ?faults ~trace a seed g in
                  (* D-MGC stats are a cost model with no engine events
                     behind them; omit the trailer so replay skips the
                     accounting check *)
                  if a = Dmgc then None else stats
              | None ->
                  let faults =
                    Fault.make ~seed
                      ~default_link:(Fault.lossy ~duplicate ~reorder ~corrupt drop)
                      ~blips:
                        (Fault.scatter_blips ~seed ~n:(Graph.n g) ~count:blips
                           ~horizon:bhorizon ())
                      ()
                  in
                  let r = Stabilize.run ~faults ~trace g (Dfs_sched.run g).Dfs_sched.schedule in
                  Some r.Stabilize.stats)
        in
        Trace.close_writer ?stats writer
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a JSONL event trace of a scheduling run, or re-validate / summarize a \
          recorded one")
    Term.(
      const run $ graph_source $ algo $ seed_arg $ drop $ duplicate $ reorder $ corrupt
      $ blips_arg $ blip_horizon_arg $ replay $ summary $ json $ out_arg $ verbose_arg)

(* --- metrics ----------------------------------------------------------- *)

let metrics_cmd =
  let algo = algo_arg ~doc:"Algorithm" ~default:Dfs algos in
  let format =
    let doc = "Export format: kv (stable key=value), json, or prom (Prometheus text)." in
    Arg.(value & opt metrics_format_conv `Kv & info [ "f"; "format" ] ~docv:"FMT" ~doc)
  in
  let run graph algo seed domains format out verbose =
    setup_logs verbose;
    let g = or_die graph in
    let reg = Metrics.create () in
    let _sched, _stats = run_algo ~metrics:(Metrics.sink reg) ~domains algo seed g in
    emit out (metrics_dump format reg)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a scheduling algorithm and print its metrics registry (counters, gauges, \
          histograms and timelines) in kv, JSON or Prometheus format")
    Term.(
      const run $ graph_source $ algo $ seed_arg $ domains_arg $ format $ out_arg
      $ verbose_arg)

(* --- profile ----------------------------------------------------------- *)

let profile_cmd =
  let algo = algo_arg ~doc:"Algorithm" ~default:Dfs algos in
  let chrome_arg =
    let doc =
      "Write the profile as Chrome trace_event JSON to $(docv) (load in \
       chrome://tracing, Perfetto or speedscope)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let folded_arg =
    let doc =
      "Write the profile as folded stacks to $(docv) (pipe into flamegraph.pl or \
       inferno-flamegraph)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  let capacity_arg =
    let doc = "Span ring capacity (oldest entries are overwritten beyond this)." in
    Arg.(
      value
      & opt (checked_int ~min:2 "--capacity") 65_536
      & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let run graph algo seed domains chrome folded capacity out verbose =
    setup_logs verbose;
    let g = or_die graph in
    let spans = Span.recorder ~capacity () in
    let (_ : Schedule.t * Fdlsp_sim.Stats.t option) =
      run_algo ~spans ~domains algo seed g
    in
    let entries = Span.entries spans in
    (* a complete profile must nest perfectly; anything else is a bug in
       the instrumentation, not in the user's invocation *)
    if Span.overwritten spans = 0 then
      (match Span.check_nesting ~require_closed:true entries with
      | Ok () -> ()
      | Error m -> or_die (Error ("span nesting violated: " ^ m)))
    else
      Logs.warn (fun k ->
          k "span ring overflowed (%d entries lost); profile is a suffix"
            (Span.overwritten spans));
    Option.iter (fun path -> emit (Some path) (Span.to_chrome entries)) chrome;
    Option.iter (fun path -> emit (Some path) (Span.to_folded entries)) folded;
    if chrome = None && folded = None then emit out (Span.to_folded entries)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a scheduling algorithm under the causal span profiler and export the \
          span tree as folded stacks (default) and/or Chrome trace_event JSON")
    Term.(
      const run $ graph_source $ algo $ seed_arg $ domains_arg $ chrome_arg $ folded_arg
      $ capacity_arg $ out_arg $ verbose_arg)

(* --- doctor ------------------------------------------------------------ *)

let doctor_cmd =
  let dump_arg =
    let doc = "Flight-recorder dump file (written by 'serve' or on crash)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DUMP" ~doc)
  in
  let run dump out =
    let path =
      match dump with
      | Some p -> p
      | None -> die_usage "doctor expects a DUMP file argument"
    in
    let d =
      try Flight.load path with Failure m | Sys_error m -> or_die (Error m)
    in
    emit out (Format.asprintf "%a" Flight.pp_story d)
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Reconstruct the last seconds before a crash from a flight-recorder dump: \
          reason, span window, nesting verdict, recent spans and health samples")
    Term.(const run $ dump_arg $ out_arg)

(* --- serve ------------------------------------------------------------ *)

(* "u:v" arc endpoints for --query; malformed input dies through
   [die_usage] with exit 2 like every other argument. *)
let arc_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ u; v ] -> (
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some u, Some v when u >= 0 && v >= 0 -> Ok (u, v)
        | _ ->
            die_usage
              (Printf.sprintf "--query expects U:V with non-negative integers, got %S" s))
    | _ -> die_usage (Printf.sprintf "--query expects U:V, got %S" s)
  in
  Arg.conv (parse, fun ppf (u, v) -> Format.fprintf ppf "%d:%d" u v)

(* JSONL event stream -> batches: {"ev":"flush"} forces a boundary,
   --batch K > 0 additionally closes every K events.  A malformed line
   dies through the uniform usage-error contract (exit 2), naming its
   1-based line number in the original file. *)
let read_event_batches ~batch path =
  let text =
    try
      if path = "-" then In_channel.input_all stdin
      else In_channel.with_open_text path In_channel.input_all
    with Sys_error m -> or_die (Error m)
  in
  let display = if path = "-" then "stdin" else path in
  let batches = ref [] and cur = ref [] and count = ref 0 in
  let close () =
    if !cur <> [] then begin
      batches := List.rev !cur :: !batches;
      cur := [];
      count := 0
    end
  in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then
        match Service.line_of_string line with
        | exception Failure m ->
            die_usage (Printf.sprintf "--events %s: line %d: %s" display (i + 1) m)
        | `Flush -> close ()
        | `Event e ->
            cur := e :: !cur;
            incr count;
            if batch > 0 && !count >= batch then close ())
    (String.split_on_char '\n' text);
  close ();
  List.rev !batches

let serve_cmd =
  let events_arg =
    let doc = "Read JSONL churn events from $(docv) ('-' for stdin)." in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let synth_arg =
    let doc = "Generate $(docv) seeded synthetic churn events instead of reading a file." in
    Arg.(value & opt (some (checked_int ~min:1 "--synth")) None & info [ "synth" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc =
      "Batch size: close a batch every $(docv) events (0 = only at flush markers; \
       synthetic streams default to 8)."
    in
    Arg.(value & opt (checked_int ~min:0 "--batch") 0 & info [ "batch" ] ~docv:"K" ~doc)
  in
  let snapshot_arg =
    let doc = "Write a checksummed service snapshot to $(docv) after the stream." in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let restore_arg =
    let doc = "Start from a snapshot instead of a graph (exclusive with -g/-i)." in
    Arg.(value & opt (some string) None & info [ "restore" ] ~docv:"FILE" ~doc)
  in
  let query_arg =
    let doc = "After the stream, print the slot of arc $(docv) (repeatable)." in
    Arg.(value & opt_all arc_conv [] & info [ "query" ] ~docv:"U:V" ~doc)
  in
  let check_flag =
    let doc = "Re-validate the schedule after every batch (exit 1 on violation)." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let json =
    let doc = "Emit the summary as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let wal_arg =
    let doc =
      "Serve durably out of $(docv): append every accepted batch to a checksummed \
       write-ahead log before repair runs, alongside an atomic snapshot."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"DIR" ~doc)
  in
  let recover_flag =
    let doc =
      "Start by recovering the --wal directory (snapshot + WAL tail replay) instead \
       of building a fresh service (exclusive with -g/-i/--restore)."
    in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let auto_snapshot_arg =
    let doc =
      "With --wal: snapshot and truncate the log every $(docv) applied batches \
       (0 = only the initial snapshot)."
    in
    Arg.(
      value
      & opt (checked_int ~min:0 "--auto-snapshot") 0
      & info [ "auto-snapshot" ] ~docv:"K" ~doc)
  in
  let max_batch_arg =
    let doc =
      "Enable admission control with at most $(docv) events per batch; larger \
       batches are rejected, not applied."
    in
    Arg.(
      value
      & opt (some (checked_int ~min:1 "--max-batch")) None
      & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc =
      "Enable admission control with a token bucket of $(docv) events per tick \
       (one tick per input batch); over-rate batches are deferred, then rejected."
    in
    Arg.(
      value
      & opt (some (checked_float ~min:1e-6 "--rate")) None
      & info [ "rate" ] ~docv:"R" ~doc)
  in
  let health_every_arg =
    let doc =
      "Emit one JSONL health sample (window deltas: events, repair quantiles, \
       admission verdicts, WAL bytes, queue depth, degraded flag) every $(docv) \
       applied batches, plus a final flush sample."
    in
    Arg.(
      value
      & opt (some (checked_int ~min:1 "--health-every")) None
      & info [ "health-every" ] ~docv:"N" ~doc)
  in
  let health_out_arg =
    let doc = "Write health samples to $(docv) instead of stderr." in
    Arg.(value & opt (some string) None & info [ "health-out" ] ~docv:"FILE" ~doc)
  in
  (* "--slo KEY=NUM"; an unknown key or unparseable number dies with the
     uniform usage contract (exit 2) like every other argument *)
  let slo_conv =
    let keys = String.concat "|" (List.map fst Server.slo_names) in
    let parse s =
      match String.index_opt s '=' with
      | None ->
          die_usage
            (Printf.sprintf "--slo expects KEY=NUM with KEY one of %s, got %S" keys s)
      | Some i -> (
          let key = String.sub s 0 i in
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match (Server.slo_of_string key, float_of_string_opt v) with
          | None, _ ->
              die_usage (Printf.sprintf "--slo key must be one of %s, got %S" keys key)
          | Some slo, Some f when (not (Float.is_nan f)) && f >= 0. -> Ok (slo, f)
          | Some _, _ ->
              die_usage
                (Printf.sprintf "--slo %s expects a non-negative number, got %S" key v))
    in
    Arg.conv (parse, fun ppf (k, v) -> Format.fprintf ppf "%s=%g" (Server.slo_name k) v)
  in
  let slo_arg =
    let doc =
      "Burnable SLO threshold, repeatable: p99_repair_ms=MS (window p99 repair \
       latency ceiling), events_per_sec=N (window throughput floor), \
       queue_depth=D (admission queue ceiling).  A burned SLO emits an alert \
       sample and flips the exit code to 1."
    in
    Arg.(value & opt_all slo_conv [] & info [ "slo" ] ~docv:"KEY=NUM" ~doc)
  in
  let flight_arg =
    let doc =
      "Write flight-recorder dumps to $(docv); defaults to DIR/flight.fdr under \
       --wal.  Dumps are written at startup, every 64 batches, and on apply \
       failure, recovery scrub, --check divergence, SIGTERM or SIGINT."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let run spec file seed events_file synth batch snap restore queries check json out wal
      recover auto_snapshot max_batch rate health_every health_out slos flight verbose =
    setup_logs verbose;
    let source =
      if recover then begin
        if wal = None then or_die (Error "--recover requires --wal");
        if spec <> None || file <> None || restore <> None then
          or_die
            (Error "--recover is mutually exclusive with --generate/--input/--restore");
        Server.Recover
      end
      else
        match (restore, spec, file) with
        | Some _, Some _, _ | Some _, _, Some _ ->
            or_die (Error "--restore is mutually exclusive with --generate/--input")
        | Some path, None, None -> Server.Restore path
        | None, Some s, None -> Server.Graph (build_spec seed s)
        | None, None, Some path ->
            Server.Graph (try Io.read_file path with Failure m -> or_die (Error m))
        | None, None, None ->
            or_die (Error "one of --generate, --input or --restore is required")
        | None, Some _, Some _ -> or_die (Error "--generate and --input are mutually exclusive")
    in
    if events_file <> None && synth <> None then
      or_die (Error "--events and --synth are mutually exclusive");
    let file_batches = Option.map (read_event_batches ~batch) events_file in
    let health_oc = Option.map open_out health_out in
    let on_health line =
      match health_oc with
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc
      | None -> prerr_endline line
    in
    let srv =
      guard (fun () ->
          Server.create ~on_health
            {
              Server.source;
              wal;
              auto_snapshot;
              flight;
              max_batch;
              rate;
              health_every;
              slos;
              check;
            })
    in
    (try
       Sys.set_signal Sys.sigterm
         (Sys.Signal_handle
            (fun _ ->
              Server.dump srv "signal-term";
              exit 143));
       Sys.set_signal Sys.sigint
         (Sys.Signal_handle
            (fun _ ->
              Server.dump srv "signal-int";
              exit 130))
     with Invalid_argument _ | Sys_error _ -> ());
    let batches =
      match (file_batches, synth) with
      | Some batches, _ -> batches
      | None, Some n ->
          Service.synth (Server.service srv) ~seed ~events:n
            ~batch:(if batch = 0 then 8 else batch)
      | None, None -> []
    in
    let r =
      guard (fun () ->
          List.iter (Server.offer srv) batches;
          Server.finish ~queries srv)
    in
    Option.iter close_out health_oc;
    Option.iter (fun path -> emit (Some path) (Service.snapshot (Server.service srv))) snap;
    let num_or_null f = if Float.is_nan f then "null" else Printf.sprintf "%g" f in
    let tail_name = function
      | Wal.Clean -> "clean"
      | Wal.Torn _ -> "torn"
      | Wal.Corrupt _ -> "corrupt"
    in
    let t = r.Server.totals in
    let buf = Buffer.create 256 in
    if json then begin
      Printf.bprintf buf
        "{\"nodes\":%d,\"live\":%d,\"links\":%d,\"slots\":%d,\"valid\":%b,\"batches\":%d,\
         \"events\":%d,\"ops\":%d,\"recolored\":%d,\"events_per_sec\":%s,\
         \"repair_ms_p50\":%s,\"repair_ms_p99\":%s"
        r.nodes r.live r.links r.slots r.valid t.Service.batches t.Service.events
        t.Service.ops t.Service.recolored (num_or_null r.events_per_sec)
        (num_or_null r.repair_ms_p50) (num_or_null r.repair_ms_p99);
      Option.iter
        (fun rv ->
          Printf.bprintf buf
            ",\"recovery\":{\"replayed\":%d,\"covered\":%d,\"invalid\":%d,\"tail\":\"%s\"}"
            rv.Wal.Store.rv_replayed rv.Wal.Store.rv_covered rv.Wal.Store.rv_invalid
            (tail_name rv.Wal.Store.rv_tail))
        r.recovery;
      Option.iter
        (fun c ->
          Printf.bprintf buf
            ",\"admission\":{\"admitted\":%d,\"deferred\":%d,\"rejected\":%d,\"shed\":%d,\
             \"released\":%d}"
            c.Admission.c_admitted c.Admission.c_deferred c.Admission.c_rejected
            c.Admission.c_shed c.Admission.c_released)
        r.admission;
      Printf.bprintf buf ",\"queries\":[%s]}\n"
        (String.concat ","
           (List.map
              (fun (u, v, slot) ->
                Printf.sprintf "{\"u\":%d,\"v\":%d,\"slot\":%s}" u v
                  (match slot with Some c -> string_of_int c | None -> "null"))
              r.queries))
    end
    else begin
      Printf.bprintf buf
        "nodes=%d live=%d links=%d slots=%d valid=%b batches=%d events=%d ops=%d \
         recolored=%d events_per_sec=%s repair_ms_p50=%s repair_ms_p99=%s\n"
        r.nodes r.live r.links r.slots r.valid t.Service.batches t.Service.events
        t.Service.ops t.Service.recolored (num_or_null r.events_per_sec)
        (num_or_null r.repair_ms_p50) (num_or_null r.repair_ms_p99);
      Option.iter
        (fun rv ->
          Printf.bprintf buf "recovery replayed=%d covered=%d invalid=%d tail=%s\n"
            rv.Wal.Store.rv_replayed rv.Wal.Store.rv_covered rv.Wal.Store.rv_invalid
            (tail_name rv.Wal.Store.rv_tail))
        r.recovery;
      Option.iter
        (fun c ->
          Printf.bprintf buf
            "admission admitted=%d deferred=%d rejected=%d shed=%d released=%d\n"
            c.Admission.c_admitted c.Admission.c_deferred c.Admission.c_rejected
            c.Admission.c_shed c.Admission.c_released)
        r.admission;
      List.iter
        (fun (u, v, slot) ->
          match slot with
          | Some c -> Printf.bprintf buf "arc %d->%d slot=%d\n" u v c
          | None -> Printf.bprintf buf "arc %d->%d none\n" u v)
        r.queries
    end;
    emit out (Buffer.contents buf);
    if r.slo_burned then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived scheduling service over a batched churn stream \
          (join/leave/move/degrade JSONL or seeded synthetic events), with a \
          write-ahead log, crash recovery, admission control, snapshot/restore \
          and O(1) slot queries")
    Term.(
      const run $ spec_opt_arg $ input_opt_arg $ seed_arg $ events_arg $ synth_arg
      $ batch_arg $ snapshot_arg $ restore_arg $ query_arg $ check_flag $ json $ out_arg
      $ wal_arg $ recover_flag $ auto_snapshot_arg $ max_batch_arg $ rate_arg
      $ health_every_arg $ health_out_arg $ slo_arg $ flight_arg $ verbose_arg)

(* --- bounds ----------------------------------------------------------- *)

let bounds_cmd =
  let exact =
    let doc = "Also compute the exact optimum (exponential; small graphs only)." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run graph exact out =
    let g = or_die graph in
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "lower_bound=%d upper_bound=%d clique_lower=%d\n" (Bounds.lower g)
         (Bounds.upper g)
         (Bounds.clique_lower g));
    if exact then begin
      let r = Dsatur.fdlsp_optimal g in
      Buffer.add_string buf
        (Printf.sprintf "optimal=%d proven=%b\n" r.Dsatur.colors_used
           (r.Dsatur.status = Dsatur.Optimal))
    end;
    emit out (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the paper's slot-count bounds")
    Term.(const run $ graph_source $ exact $ out_arg)

(* --- validate ---------------------------------------------------------- *)

let validate_cmd =
  let sched_file =
    let doc = "Schedule file produced by 'schedule --save'." in
    Arg.(required & opt (some string) None & info [ "s"; "schedule" ] ~docv:"FILE" ~doc)
  in
  let run graph sched_file =
    let g = or_die graph in
    let sched = try Schedule.read_file g sched_file with Failure m -> or_die (Error m) in
    match Schedule.validate sched with
    | Ok () ->
        Printf.printf "valid: %d slots over %d arcs\n" (Schedule.num_slots sched)
          (2 * Graph.m g)
    | Error v ->
        Printf.printf "INVALID: %s\n" (Format.asprintf "%a" (Schedule.pp_violation g) v);
        exit 2
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check a saved schedule against a graph")
    Term.(const run $ graph_source $ sched_file)

(* --- dot --------------------------------------------------------------- *)

let dot_cmd =
  let run graph out =
    let g = or_die graph in
    emit out (Graph.to_dot g)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the graph as Graphviz") Term.(const run $ graph_source $ out_arg)

let () =
  let info =
    Cmd.info "fdlsp" ~version:"1.0.0"
      ~doc:"Distributed TDMA link scheduling for sensor networks (FDLSP)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            schedule_cmd;
            validate_cmd;
            bounds_cmd;
            dot_cmd;
            faults_cmd;
            stabilize_cmd;
            frames_cmd;
            trace_cmd;
            metrics_cmd;
            profile_cmd;
            doctor_cmd;
            serve_cmd;
          ]))
