(* Tests for the event-tracing subsystem: sinks, the JSONL codec and
   file format, per-phase summaries, and the replay checker that
   re-validates a finished run from its trace alone. *)

open Fdlsp_graph
open Fdlsp_sim
open Fdlsp_core

let rng = Generators.rng [| 0x7ACE; 4 |]
let qtest name ?(count = 50) arb prop = Generators.qtest name ~count arb prop

let ev t e = { Trace.t; ev = e }

let sample_events =
  [|
    ev 1. (Trace.Round_start 1);
    ev 1. (Trace.Send { src = 0; dst = 1 });
    ev 1. (Trace.Recv { src = 0; dst = 1 });
    ev 1. (Trace.Drop { src = 1; dst = 2 });
    ev 1. (Trace.Duplicate { src = 2; dst = 0 });
    ev 1. (Trace.Retransmit { src = 0; dst = 2 });
    ev 1.5 (Trace.Crash 3);
    ev 2.25 (Trace.Recover 3);
    ev 1. (Trace.Round_end 1);
    ev 0. (Trace.Phase { label = "color \"x\"\n"; scale = 3 });
    ev 2. (Trace.Mis_join 5);
    ev 2. (Trace.Color { node = 4; arc = 7; slot = 2 });
    ev 3. (Trace.Corrupt_state { node = 2; arc = 5; slot = 9 });
    ev 3. (Trace.Corrupt_state { node = 1; arc = -1; slot = -1 });
    ev 4. (Trace.Detect { node = 2; arc = 5 });
    ev 4. (Trace.Recolor { node = 2; arc = 5; slot = 1 });
    ev 5. (Trace.Give_up { src = 0; dst = 2 });
    ev 6. (Trace.Beacon_loss { node = 3; frame = 7 });
    ev 6.5 (Trace.Desync { node = 3; frame = 9 });
    ev 7. (Trace.Join { node = 3; parent = 1 });
    ev 7. (Trace.Resync { node = 3; frame = 10 });
    ev 7.25 (Trace.Sleep { node = 3; slots = 4 });
  |]

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_null_sink () =
  let s = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled s);
  Trace.emit s ~t:1. (Trace.Round_start 1);
  Alcotest.(check int) "seen" 0 (Trace.seen s);
  Alcotest.(check int) "events" 0 (Array.length (Trace.events s));
  Alcotest.(check int) "overwritten" 0 (Trace.overwritten s)

let test_memory_sink () =
  let s = Trace.memory () in
  Alcotest.(check bool) "enabled" true (Trace.enabled s);
  Array.iter (fun { Trace.t; ev } -> Trace.emit s ~t ev) sample_events;
  Alcotest.(check int) "seen" (Array.length sample_events) (Trace.seen s);
  Alcotest.(check int) "overwritten" 0 (Trace.overwritten s);
  Alcotest.(check bool) "order preserved" true (Trace.events s = sample_events)

let test_ring_wraparound () =
  let s = Trace.memory ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit s ~t:(float_of_int i) (Trace.Round_start i)
  done;
  Alcotest.(check int) "seen counts everything" 10 (Trace.seen s);
  Alcotest.(check int) "overwritten" 6 (Trace.overwritten s);
  let kept = Trace.events s in
  Alcotest.(check int) "capacity" 4 (Array.length kept);
  Alcotest.(check bool) "last four, in order" true
    (Array.to_list kept
    = List.map (fun i -> ev (float_of_int i) (Trace.Round_start i)) [ 7; 8; 9; 10 ])

(* ------------------------------------------------------------------ *)
(* JSONL codec and trace files                                         *)
(* ------------------------------------------------------------------ *)

let test_event_json_roundtrip () =
  Array.iter
    (fun e ->
      let e' = Trace.event_of_json (Trace.event_to_json e) in
      Alcotest.(check bool) (Trace.event_to_json e) true (e = e'))
    sample_events

let test_event_json_rejects () =
  let fails s = try ignore (Trace.event_of_json s); false with Failure _ -> true in
  Alcotest.(check bool) "garbage" true (fails "nope");
  Alcotest.(check bool) "unknown event" true (fails {|{"t":1,"ev":"warp"}|});
  Alcotest.(check bool) "missing fields" true (fails {|{"t":1,"ev":"send","src":0}|})

let test_json_reader () =
  let j = Json.parse {| {"a": -1.5e2, "b": "x\"\n", "c": {"d": true}, "e": null} |} in
  Alcotest.(check bool) "num" true (Json.member "a" j = Some (Json.Num (-150.)));
  Alcotest.(check bool) "escaped string" true
    (Json.member "b" j = Some (Json.Str "x\"\n"));
  Alcotest.(check bool) "nested" true
    (match Json.member "c" j with
    | Some o -> Json.member "d" o = Some (Json.Bool true)
    | None -> false);
  Alcotest.(check bool) "null" true (Json.member "e" j = Some Json.Null);
  Alcotest.(check bool) "absent" true (Json.member "zz" j = None);
  let fails s = try ignore (Json.parse s); false with Failure _ -> true in
  Alcotest.(check bool) "trailing junk" true (fails "{} x");
  Alcotest.(check bool) "unterminated" true (fails {|{"a": 1|})

(* Json.escape is the one escaper every exporter writes strings with,
   so its bytes are pinned here and checked against the reader. *)
let test_json_escape () =
  Alcotest.(check string) "two-character escapes" {|q\"b\\n\nr\rt\t|}
    (Json.escape "q\"b\\n\nr\rt\t");
  Alcotest.(check string) "other control bytes" {|a\u0001b\u001f|}
    (Json.escape "a\001b\031");
  Alcotest.(check string) "other bytes copied" "caf\xc3\xa9 /~" (Json.escape "caf\xc3\xa9 /~")

let prop_json_escape_roundtrip =
  qtest "Json.parse reads back any Json.escape'd string" ~count:200
    QCheck2.Gen.string (fun s -> Json.parse ("\"" ^ Json.escape s ^ "\"") = Json.Str s)

let test_file_roundtrip () =
  let path = Filename.temp_file "fdlsp" ".jsonl" in
  let stats = Stats.make ~rounds:3 ~messages:9 ~dropped:1 () in
  Trace.save ~meta:[ ("algo", "unit-test"); ("n", "5") ] ~stats path sample_events;
  let f = Trace.load path in
  Sys.remove path;
  Alcotest.(check bool) "meta" true
    (List.assoc "algo" f.Trace.meta = "unit-test" && List.assoc "n" f.Trace.meta = "5");
  Alcotest.(check bool) "stats" true (f.Trace.stats = Some stats);
  Alcotest.(check bool) "events" true (f.Trace.events = sample_events)

let test_load_errors () =
  let with_contents s k =
    let path = Filename.temp_file "fdlsp" ".jsonl" in
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    let r = try ignore (Trace.load path); false with Failure _ -> true in
    Sys.remove path;
    k r
  in
  with_contents "" (Alcotest.(check bool) "empty file" true);
  with_contents "{\"trace\":\"fdlsp\",\"version\":1,\"meta\":{}}\n"
    (Alcotest.(check bool) "missing trailer" true);
  with_contents
    "{\"trace\":\"fdlsp\",\"version\":1,\"meta\":{}}\n{\"end\":true}\n{\"end\":true}\n"
    (Alcotest.(check bool) "content after trailer" true)

(* ------------------------------------------------------------------ *)
(* Summaries and Stats JSON                                            *)
(* ------------------------------------------------------------------ *)

let test_summary_phases () =
  let stream =
    [|
      ev 1. (Trace.Round_start 1);
      ev 1. (Trace.Send { src = 0; dst = 1 });
      ev 1. (Trace.Recv { src = 0; dst = 1 });
      ev 1. (Trace.Round_end 1);
      ev 0. (Trace.Phase { label = "relay"; scale = 3 });
      ev 1. (Trace.Round_start 1);
      ev 1. (Trace.Send { src = 1; dst = 0 });
      ev 1. (Trace.Drop { src = 1; dst = 0 });
      ev 1. (Trace.Round_end 1);
      ev 2. (Trace.Round_start 2);
      ev 2. (Trace.Mis_join 0);
      ev 2. (Trace.Round_end 2);
    |]
  in
  let s = Trace.Summary.of_events stream in
  (match s.Trace.Summary.phases with
  | [ a; b ] ->
      Alcotest.(check string) "implicit label" "run" a.Trace.Summary.label;
      Alcotest.(check int) "run rounds" 1 a.Trace.Summary.rounds;
      Alcotest.(check int) "run sends" 1 a.Trace.Summary.sends;
      Alcotest.(check string) "second label" "relay" b.Trace.Summary.label;
      Alcotest.(check int) "relay scale" 3 b.Trace.Summary.scale;
      Alcotest.(check int) "relay rounds" 2 b.Trace.Summary.rounds;
      Alcotest.(check int) "relay joins" 1 b.Trace.Summary.mis_joins
  | ps -> Alcotest.failf "expected 2 phases, got %d" (List.length ps));
  let tot = Trace.Summary.totals s in
  (* scale weights channel activity but not decisions *)
  Alcotest.(check int) "total rounds" (1 + (3 * 2)) tot.Trace.Summary.rounds;
  Alcotest.(check int) "total sends" (1 + (3 * 1)) tot.Trace.Summary.sends;
  Alcotest.(check int) "total drops" 3 tot.Trace.Summary.drops;
  Alcotest.(check int) "total joins" 1 tot.Trace.Summary.mis_joins

(* Satellite: Stats.to_json must parse as JSON and agree field-for-field
   with the stable pp_kv rendering. *)
let arb_stats =
  let gen st =
    Stats.make
      ~volume:(Random.State.int st 10_000)
      ~dropped:(Random.State.int st 500)
      ~duplicated:(Random.State.int st 500)
      ~retransmits:(Random.State.int st 500)
      ~gave_up:(Random.State.int st 100)
      ~rounds:(Random.State.int st 1000)
      ~messages:(Random.State.int st 10_000)
      ~corruptions:(Random.State.int st 100)
      ()
  in
  QCheck2.Gen.make_primitive ~gen ~shrink:(fun _ -> Seq.empty)

let prop_stats_json_matches_kv =
  qtest "Stats.to_json parses and reconciles with pp_kv" ~count:100 arb_stats
    (fun st ->
      let j = Json.parse (Stats.to_json st) in
      let kv =
        Format.asprintf "%a" Stats.pp_kv st
        |> String.split_on_char ' '
        |> List.map (fun pair ->
               match String.split_on_char '=' pair with
               | [ k; v ] -> (k, float_of_string v)
               | _ -> failwith "bad kv pair")
      in
      List.length kv = 8
      && List.for_all
           (fun (k, v) -> Json.member k j = Some (Json.Num v))
           kv)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let traced_distmis ?(drop = 0.1) ?crashes () =
  let g = fst (Gen.udg (rng ()) ~n:14 ~side:4. ~radius:1.4) in
  let plan =
    match crashes with
    | None -> Fault.uniform ~seed:11 drop
    | Some crashes ->
        Fault.make ~seed:11 ~default_link:(Fault.lossy drop) ~crashes ()
  in
  let trace = Trace.memory () in
  let r =
    Dist_mis.run ~faults:plan ~trace
      ~mis:(Mis.Luby (Random.State.make [| 3; 14 |]))
      ~variant:Dist_mis.Gbg g
  in
  (g, plan, Trace.events trace, r)

let test_replay_ok () =
  let g, plan, events, r = traced_distmis () in
  match
    Trace.Replay.check ~plan ~stats:r.Dist_mis.stats ~require_complete:true g events
  with
  | Ok rep ->
      Alcotest.(check bool) "saw retransmissions" true
        (rep.Trace.Replay.retransmit_events > 0);
      Alcotest.(check bool) "schedule rebuilt" true
        (Fdlsp_color.Schedule.valid rep.Trace.Replay.schedule)
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_replay_ok_with_crashes () =
  let crashes = [ { Fault.node = 2; at = 4.; until = Some 9. } ] in
  let g, plan, events, r = traced_distmis ~drop:0.05 ~crashes () in
  match
    Trace.Replay.check ~plan ~stats:r.Dist_mis.stats ~require_complete:true g events
  with
  | Ok rep ->
      Alcotest.(check bool) "crash events recorded" true
        (rep.Trace.Replay.crash_events > 0)
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_replay_rejects_tampered_decision () =
  let g, plan, events, r = traced_distmis () in
  (* re-coloring an already-colored arc must be caught *)
  let recolor =
    Array.to_seq events
    |> Seq.filter_map (function
         | { Trace.ev = Trace.Color c; t } ->
             Some { Trace.t; ev = Trace.Color { c with slot = c.slot + 1 } }
         | _ -> None)
    |> Seq.take 1 |> Array.of_seq
  in
  let tampered = Array.append events recolor in
  match Trace.Replay.check ~plan ~stats:r.Dist_mis.stats g tampered with
  | Ok _ -> Alcotest.fail "tampered trace accepted"
  | Error _ -> ()

let test_replay_rejects_stats_mismatch () =
  let g, plan, events, r = traced_distmis () in
  let st = r.Dist_mis.stats in
  let lying = { st with Stats.messages = st.Stats.messages + 1 } in
  match Trace.Replay.check ~plan ~stats:lying g events with
  | Ok _ -> Alcotest.fail "bad stats accepted"
  | Error _ -> ()

let test_replay_rejects_conflicting_colors () =
  (* hand-built trace on a path: both arcs of one edge in the same slot *)
  let g = Gen.path 2 in
  let a = Arc.make g 0 1 in
  let stream =
    [|
      ev 1. (Trace.Color { node = 0; arc = a; slot = 0 });
      ev 1. (Trace.Color { node = 1; arc = Arc.rev a; slot = 0 });
    |]
  in
  match Trace.Replay.check g stream with
  | Ok _ -> Alcotest.fail "conflicting decisions accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Tracing must not perturb the run                                    *)
(* ------------------------------------------------------------------ *)

let prop_tracing_is_transparent =
  qtest "traced run = untraced run (DFS, schedule and stats)" ~count:20
    (Generators.arb_gnp ~max_n:12 ~max_p:0.5 ())
    (fun g ->
      let plain = Dfs_sched.run g in
      let trace = Trace.memory () in
      let traced = Dfs_sched.run ~trace g in
      Fdlsp_color.Schedule.colors plain.Dfs_sched.schedule
      = Fdlsp_color.Schedule.colors traced.Dfs_sched.schedule
      && plain.Dfs_sched.stats = traced.Dfs_sched.stats)

let prop_dfs_replay =
  qtest "DFS traces replay clean" ~count:20
    (Generators.arb_gnp ~min_n:2 ~max_n:10 ~max_p:0.5 ())
    (fun g ->
      let trace = Trace.memory () in
      let r = Dfs_sched.run ~trace g in
      match
        Trace.Replay.check ~stats:r.Dfs_sched.stats ~require_complete:true g
          (Trace.events trace)
      with
      | Ok _ -> true
      | Error _ -> false)

let () =
  Alcotest.run "fdlsp_trace"
    [
      ( "sinks",
        [
          Alcotest.test_case "null" `Quick test_null_sink;
          Alcotest.test_case "memory" `Quick test_memory_sink;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "event roundtrip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "event rejects" `Quick test_event_json_rejects;
          Alcotest.test_case "json reader" `Quick test_json_reader;
          Alcotest.test_case "json escape" `Quick test_json_escape;
          prop_json_escape_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "load errors" `Quick test_load_errors;
        ] );
      ( "summary",
        [
          Alcotest.test_case "phase split + totals" `Quick test_summary_phases;
          prop_stats_json_matches_kv;
        ] );
      ( "replay",
        [
          Alcotest.test_case "distmis under loss" `Quick test_replay_ok;
          Alcotest.test_case "distmis with crashes" `Quick test_replay_ok_with_crashes;
          Alcotest.test_case "tampered decision" `Quick test_replay_rejects_tampered_decision;
          Alcotest.test_case "stats mismatch" `Quick test_replay_rejects_stats_mismatch;
          Alcotest.test_case "conflicting colors" `Quick test_replay_rejects_conflicting_colors;
          prop_tracing_is_transparent;
          prop_dfs_replay;
        ] );
    ]
