(* Frame-runtime tests: the ideal-conditions oracle (valid schedule +
   zero drift/jitter/loss => collision-free and energy = awake-slot
   fraction, across every generator family), seeded resync convergence
   after a drift blip (machine-checked from the trace alone), the
   give-up accounting of the bounded-retry layers, and the
   desync-log -> Stale_phase -> Stabilize replay pipeline. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core

let dfs_schedule g = (Dfs_sched.run g).Dfs_sched.schedule

(* Expected duty cycle under ideal conditions: the SYNC, JOIN and guard
   slots plus the data slots where the node is an endpoint, every
   frame. *)
let expected_awake g sched frames =
  let sched = Schedule.normalize sched in
  let n = Graph.n g in
  let frame_len = Schedule.num_slots sched + 2 in
  let endpoint = Array.make (n * frame_len) false in
  Array.iteri
    (fun a c ->
      if c >= 0 then begin
        endpoint.((Arc.tail g a * frame_len) + 2 + c) <- true;
        endpoint.((Arc.head g a * frame_len) + 2 + c) <- true
      end)
    (Schedule.colors sched);
  Array.init n (fun v ->
      let k = ref 0 in
      for s = 0 to frame_len - 1 do
        if s <= 1 || s = frame_len - 1 || endpoint.((v * frame_len) + s) then
          incr k
      done;
      frames * !k)

let colored_arcs sched =
  Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0
    (Schedule.colors sched)

(* ------------------------------------------------------------------ *)
(* Ideal-conditions oracle                                             *)
(* ------------------------------------------------------------------ *)

let ideal_oracle g =
  let sched = dfs_schedule g in
  let frames = 6 in
  let cfg =
    {
      Frame.default with
      frames;
      warm_start = true;
      (* above the horizon: nodes unreachable from the master miss
         every beacon but never desync *)
      resync_threshold = frames + 2;
    }
  in
  let r = Frame.run ~config:cfg g sched in
  let n = Graph.n g in
  let m = colored_arcs sched in
  if r.Frame.r_collisions <> 0 then
    QCheck2.Test.fail_reportf "collisions: %d" r.Frame.r_collisions;
  if r.Frame.r_retries <> 0 || r.Frame.r_gave_up <> 0 then
    QCheck2.Test.fail_reportf "retries=%d gave_up=%d" r.Frame.r_retries
      r.Frame.r_gave_up;
  if r.Frame.r_offered <> frames * m then
    QCheck2.Test.fail_reportf "offered %d <> %d" r.Frame.r_offered (frames * m);
  if r.Frame.r_delivered <> r.Frame.r_offered then
    QCheck2.Test.fail_reportf "delivered %d <> offered %d" r.Frame.r_delivered
      r.Frame.r_offered;
  if r.Frame.r_desyncs <> 0 || r.Frame.r_resyncs <> 0 then
    QCheck2.Test.fail_reportf "desyncs=%d resyncs=%d" r.Frame.r_desyncs
      r.Frame.r_resyncs;
  if r.Frame.r_synced_end <> n then
    QCheck2.Test.fail_reportf "synced_end %d <> %d" r.Frame.r_synced_end n;
  let expect = expected_awake g sched frames in
  let total = frames * r.Frame.r_frame_length in
  Array.iteri
    (fun v aw ->
      if aw <> expect.(v) then
        QCheck2.Test.fail_reportf "node %d awake %d <> %d" v aw expect.(v);
      if aw + r.Frame.r_asleep_slots.(v) <> total then
        QCheck2.Test.fail_reportf "node %d slots %d <> %d" v
          (aw + r.Frame.r_asleep_slots.(v))
          total;
      let sl = float_of_int (total - expect.(v)) /. float_of_int total in
      if Float.abs (r.Frame.r_sleep.(v) -. sl) > 1e-9 then
        QCheck2.Test.fail_reportf "node %d sleep %g <> %g" v
          r.Frame.r_sleep.(v) sl)
    r.Frame.r_awake_slots;
  true

let oracle_tests =
  [
    Generators.qtest "frame oracle: gnp" ~count:60 (Generators.arb_gnp ())
      ideal_oracle;
    Generators.qtest "frame oracle: udg" ~count:30 (Generators.arb_udg ())
      ideal_oracle;
    Generators.qtest "frame oracle: tree" ~count:40 (Generators.arb_tree ())
      ideal_oracle;
    Generators.qtest "frame oracle: connected" ~count:40
      (Generators.arb_connected ()) ideal_oracle;
  ]

(* ------------------------------------------------------------------ *)
(* Drift blip: desync, rejoin, and the Stale_phase pipeline            *)
(* ------------------------------------------------------------------ *)

let blip_graph () = Gen.random_tree (Random.State.make [| 42 |]) 10

let blip_config =
  {
    Frame.default with
    frames = 24;
    resync_threshold = 3;
    warm_start = true;
    drift_blips = [ (7, 4) ];
  }

let test_blip_desync_and_rejoin () =
  let g = blip_graph () in
  let sched = dfs_schedule g in
  let trace = Trace.memory () in
  let r = Frame.run ~config:blip_config ~trace g sched in
  Alcotest.(check int) "one desync" 1 r.Frame.r_desyncs;
  Alcotest.(check bool) "rejoined" true (r.Frame.r_resyncs >= 1);
  Alcotest.(check int) "all synced at end" 10 r.Frame.r_synced_end;
  Alcotest.(check bool) "lag recorded" true (r.Frame.r_max_resync_lag > 0.);
  (match r.Frame.r_desync_log with
  | [ (v, t, f) ] ->
      Alcotest.(check int) "victim" 7 v;
      Alcotest.(check bool) "after the blip frame" true (f >= 4 && t > 0.)
  | l -> Alcotest.failf "desync log has %d entries" (List.length l));
  (* the log replays into Stabilize as Stale_phase corruptions *)
  let blips = Frame.stale_phase_blips r in
  Alcotest.(check int) "one blip" 1 (List.length blips);
  let b = List.hd blips in
  Alcotest.(check bool) "stale kind" true (b.Fault.b_kind = Fault.Stale_phase);
  let plan = Fault.make ~blips () in
  let sr = Stabilize.run ~faults:plan g sched in
  Alcotest.(check bool) "stabilize converged" true sr.Stabilize.converged;
  Alcotest.(check int) "corruption applied" 1 sr.Stabilize.corruptions;
  Alcotest.(check bool) "repair happened" true (sr.Stabilize.recolorings >= 1)

(* ------------------------------------------------------------------ *)
(* Resync convergence under drift + beacon loss (acceptance bar:       *)
(* drift <= 1% with 30% beacon loss), checked from the trace alone     *)
(* ------------------------------------------------------------------ *)

let test_resync_convergence () =
  (* a star keeps every slave one hop from the master, so a 30% beacon
     erasure never compounds along forwarding paths; desyncs come from
     the planted phase blip plus genuine 4-in-a-row loss streaks *)
  let g = Gen.star 8 in
  let sched = dfs_schedule g in
  let cfg =
    {
      Frame.default with
      frames = 40;
      resync_threshold = 4;
      warm_start = true;
      drift = 0.01;
      jitter = 0.02;
      beacon_loss = 0.3;
      drift_blips = [ (3, 6) ];
      seed = 11;
    }
  in
  let trace = Trace.memory () in
  let r = Frame.run ~config:cfg ~trace g sched in
  Alcotest.(check bool) "desynced at least once" true (r.Frame.r_desyncs >= 1);
  Alcotest.(check int) "all synced at end" 8 r.Frame.r_synced_end;
  let frame_time = float_of_int r.Frame.r_frame_length *. r.Frame.r_slot_duration in
  (* drift and jitter stretch local frames by a few percent; give the
     trace-side bound the same slack *)
  let frame_time = frame_time *. 1.1 in
  match
    Trace.Replay.check_frames ~resync_threshold:cfg.Frame.resync_threshold
      ~frame_time ~frame_length:r.Frame.r_frame_length (Trace.events trace)
  with
  | Error e -> Alcotest.failf "check_frames rejected: %s" e
  | Ok f ->
      Alcotest.(check int) "trace desyncs" r.Frame.r_desyncs f.Trace.Replay.f_desyncs;
      Alcotest.(check int) "trace resyncs" r.Frame.r_resyncs f.Trace.Replay.f_resyncs;
      Alcotest.(check bool) "trace says synced" true f.Trace.Replay.f_synced_end;
      Alcotest.(check bool) "bounded lag" true
        (f.Trace.Replay.f_max_lag
        <= float_of_int cfg.Frame.resync_threshold *. frame_time)

(* check_frames is a real verifier: hand-built bad traces are rejected *)
let test_check_frames_rejects () =
  let ev at e = { Trace.t = at; ev = e } in
  let reject what evs =
    match Trace.Replay.check_frames ~resync_threshold:2 (Array.of_list evs) with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  reject "desync without losses"
    [ ev 1. (Trace.Desync { node = 0; frame = 3 }) ];
  reject "resync without join"
    [
      ev 1. (Trace.Beacon_loss { node = 0; frame = 1 });
      ev 2. (Trace.Beacon_loss { node = 0; frame = 2 });
      ev 2. (Trace.Desync { node = 0; frame = 2 });
      ev 3. (Trace.Resync { node = 0; frame = 3 });
    ];
  reject "still desynced at end"
    [
      ev 1. (Trace.Beacon_loss { node = 0; frame = 1 });
      ev 2. (Trace.Beacon_loss { node = 0; frame = 2 });
      ev 2. (Trace.Desync { node = 0; frame = 2 });
    ];
  (* and the good version of the same story passes *)
  let good =
    [
      ev 1. (Trace.Beacon_loss { node = 0; frame = 1 });
      ev 2. (Trace.Beacon_loss { node = 0; frame = 2 });
      ev 2. (Trace.Desync { node = 0; frame = 2 });
      ev 3. (Trace.Join { node = 0; parent = 1 });
      ev 3. (Trace.Resync { node = 0; frame = 3 });
    ]
  in
  match Trace.Replay.check_frames ~resync_threshold:2 (Array.of_list good) with
  | Error e -> Alcotest.failf "good trace rejected: %s" e
  | Ok f ->
      Alcotest.(check int) "desyncs" 1 f.Trace.Replay.f_desyncs;
      Alcotest.(check bool) "synced" true f.Trace.Replay.f_synced_end

(* ------------------------------------------------------------------ *)
(* Bounded-retry give-up accounting (frame layer and reliable layer)   *)
(* ------------------------------------------------------------------ *)

(* Rotate the receiver's phase so it sleeps through both the SYNC slot
   and arc (1,2)'s data slot: the sender's retries run out and the
   packet is abandoned.  The schedule is hand-placed so the rotated
   sleep pattern is exactly what the test needs (see the slot map). *)
let test_frame_gave_up () =
  let g = Gen.path 3 in
  (* slots (= color + 2): (1,2)->2  (0,1)->3  (2,1)->4  (1,0)->5;
     frame_len 6, rotation 3: node 2's rotated radio is asleep at real
     slots 0 (SYNC: misses every beacon) and 2 (arc (1,2): no ack) *)
  let colors = Array.make (Arc.count g) 0 in
  Arc.iter g (fun a ->
      let t = Arc.tail g a and h = Arc.head g a in
      colors.(a) <-
        (match (t, h) with
        | 1, 2 -> 0
        | 0, 1 -> 1
        | 2, 1 -> 2
        | _ -> 3));
  let sched = Schedule.of_colors g colors in
  let cfg =
    {
      Frame.default with
      frames = 14;
      resync_threshold = 50;
      warm_start = true;
      max_retries = 2;
      drift_blips = [ (2, 2) ];
    }
  in
  let trace = Trace.memory () in
  let r = Frame.run ~config:cfg ~trace g sched in
  Alcotest.(check bool) "packets abandoned" true (r.Frame.r_gave_up >= 1);
  Alcotest.(check bool) "retries burned" true (r.Frame.r_retries >= 2);
  let traced_give_ups =
    Array.fold_left
      (fun acc { Trace.ev; _ } ->
        match ev with Trace.Give_up _ -> acc + 1 | _ -> acc)
      0 (Trace.events trace)
  in
  Alcotest.(check int) "trace reconciles" r.Frame.r_gave_up traced_give_ups

(* Reliable-layer regression: an exhausted retransmit budget is counted
   and traced, and replay accounting still reconciles. *)
let test_reliable_gave_up () =
  let g = Graph.create ~n:2 [ (0, 1) ] in
  let plan =
    Fault.make ~crashes:[ { Fault.node = 1; at = 0.5; until = None } ] ()
  in
  let reliable = { Reliable.default with Reliable.max_retries = Some 2 } in
  let trace = Trace.memory () in
  let states, stats =
    Async.run ~faults:plan ~reliable ~trace g
      ~init:(fun _ -> 0)
      ~starts:[ (0, fun c s -> Async.send c 1 "ping"; s) ]
      ~handler:(fun _ s ~sender:_ _ -> s + 1)
  in
  Alcotest.(check int) "receiver handled nothing" 0 states.(1);
  Alcotest.(check int) "one message abandoned" 1 stats.Stats.gave_up;
  Alcotest.(check int) "budget burned" 2 stats.Stats.retransmits;
  let give_ups =
    Array.fold_left
      (fun acc { Trace.ev; _ } ->
        match ev with Trace.Give_up _ -> acc + 1 | _ -> acc)
      0 (Trace.events trace)
  in
  Alcotest.(check int) "traced give-up" 1 give_ups;
  match Trace.Replay.check ~plan ~stats g (Trace.events trace) with
  | Error e -> Alcotest.failf "replay rejected: %s" e
  | Ok _ -> ()

(* ------------------------------------------------------------------ *)
(* Config validation and cold start                                    *)
(* ------------------------------------------------------------------ *)

let test_cold_start_joins () =
  let g = Gen.path 6 in
  let sched = dfs_schedule g in
  let cfg = { Frame.default with frames = 12 } in
  let r = Frame.run ~config:cfg g sched in
  Alcotest.(check int) "everyone admitted" 6 r.Frame.r_synced_end;
  Alcotest.(check int) "five joins" 5 r.Frame.r_joins;
  Alcotest.(check int) "no desyncs" 0 r.Frame.r_desyncs;
  Alcotest.(check bool) "join latency positive" true
    (r.Frame.r_join_latency > 0.);
  Alcotest.(check bool) "data flows after joining" true
    (r.Frame.r_delivered > 0)

let test_config_validation () =
  let g = Gen.path 3 in
  let sched = dfs_schedule g in
  let bad what cfg =
    Alcotest.check_raises what (Invalid_argument ("Frame.run: " ^ what))
      (fun () -> ignore (Frame.run ~config:cfg g sched))
  in
  bad "frames must be >= 1" { Frame.default with frames = 0 };
  bad "master out of range" { Frame.default with master = 3 };
  bad "drift must be in [0, 0.5)" { Frame.default with drift = 0.5 };
  bad "jitter must be in [0, 0.5)" { Frame.default with jitter = -0.1 };
  bad "beacon_loss must be a probability"
    { Frame.default with beacon_loss = 1.5 };
  bad "resync_threshold must be >= 1"
    { Frame.default with resync_threshold = 0 };
  bad "max_retries must be >= 0" { Frame.default with max_retries = -1 };
  bad "slot_duration must be >= 2"
    { Frame.default with slot_duration = Some 1. };
  bad "blip node out of range" { Frame.default with drift_blips = [ (3, 2) ] };
  bad "blip frame must be >= 1" { Frame.default with drift_blips = [ (1, 0) ] }

let test_report_printers () =
  let g = Gen.path 4 in
  let sched = dfs_schedule g in
  let r =
    Frame.run ~config:{ Frame.default with frames = 4; warm_start = true } g
      sched
  in
  let line = Format.asprintf "%a" Frame.pp_report r in
  Alcotest.(check bool) "pp has frames" true
    (String.length line > 0
    && String.sub line 0 9 = "frames=4 ");
  let json = Frame.report_to_json r in
  let j = Json.parse json in
  (match Json.member "delivered" j with
  | Some (Json.Num d) ->
      Alcotest.(check int) "json delivered" r.Frame.r_delivered
        (int_of_float d)
  | _ -> Alcotest.fail "no delivered field");
  match Json.member "sleep_fraction" j with
  | Some (Json.Num s) ->
      Alcotest.(check bool) "json sleep" true
        (Float.abs (s -. r.Frame.r_sleep_fraction) < 1e-6)
  | _ -> Alcotest.fail "no sleep_fraction field"

let test_frame_metrics () =
  let g = blip_graph () in
  let sched = dfs_schedule g in
  let reg = Metrics.create () in
  let sink = Metrics.sink reg in
  let r = Frame.run ~config:blip_config ~metrics:sink g sched in
  let labels = Metrics.sink_labels sink in
  (match Metrics.gauge_value ~labels reg Metrics.Name.frame_sleep_fraction with
  | Some v ->
      Alcotest.(check bool) "sleep gauge" true
        (Float.abs (v -. r.Frame.r_sleep_fraction) < 1e-9)
  | None -> Alcotest.fail "sleep gauge missing");
  Alcotest.(check int) "desync counter" r.Frame.r_desyncs
    (Metrics.counter_value ~labels reg Metrics.Name.frame_desyncs);
  Alcotest.(check int) "resync counter" r.Frame.r_resyncs
    (Metrics.counter_value ~labels reg Metrics.Name.frame_resyncs)

let () =
  Alcotest.run "frame"
    [
      ("oracle", oracle_tests);
      ( "resync",
        [
          Alcotest.test_case "blip desync and rejoin" `Quick
            test_blip_desync_and_rejoin;
          Alcotest.test_case "convergence under drift+loss" `Quick
            test_resync_convergence;
          Alcotest.test_case "check_frames rejects bad traces" `Quick
            test_check_frames_rejects;
        ] );
      ( "arq",
        [
          Alcotest.test_case "frame layer gives up" `Quick test_frame_gave_up;
          Alcotest.test_case "reliable layer gives up" `Quick
            test_reliable_gave_up;
        ] );
      ( "api",
        [
          Alcotest.test_case "cold start joins" `Quick test_cold_start_joins;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "report printers" `Quick test_report_printers;
          Alcotest.test_case "metrics emission" `Quick test_frame_metrics;
        ] );
    ]
