(* Tests for the telemetry layer: the causal span profiler (nesting
   discipline on real runs, ring wraparound accounting, exception
   safety, monotone clocks, folded-stack self-time arithmetic, the
   Chrome and JSONL codecs), the flight recorder (dump/load round-trip,
   truncation tolerance, story rendering), and the sliding-window
   metrics view (per-window deltas must reconcile exactly with the
   final counters). *)

open Fdlsp_graph
open Fdlsp_sim
open Fdlsp_core

let rng = Generators.rng [| 0x59A2; 3 |]

(* A deterministic clock: pops the next value, repeats the last one
   when exhausted.  [Span.recorder] reads it once at creation. *)
let fake_clock xs =
  let q = ref xs in
  fun () ->
    match !q with
    | [] -> 0.
    | [ x ] -> x
    | x :: rest ->
        q := rest;
        x

(* ------------------------------------------------------------------ *)
(* Sink semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_null_sink () =
  Alcotest.(check bool) "disabled" false (Span.enabled Span.null);
  Alcotest.(check int) "transparent" 41 (Span.span Span.null "x" (fun () -> 41));
  Span.mark Span.null "m";
  Alcotest.(check int) "nothing seen" 0 (Span.seen Span.null);
  Alcotest.(check int) "no entries" 0 (Array.length (Span.entries Span.null));
  Alcotest.(check int) "no depth" 0 (Span.depth Span.null)

let test_exception_safety () =
  let s = Span.recorder () in
  (try Span.span s "outer" (fun () -> Span.span s "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "both spans closed" 0 (Span.depth s);
  Alcotest.(check int) "4 entries" 4 (Array.length (Span.entries s));
  match Span.check_nesting ~require_closed:true (Span.entries s) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "nesting after raise: %s" m

let test_monotone_clamp () =
  (* the wall clock steps backwards; recorded timestamps must not *)
  let s = Span.recorder ~clock:(fake_clock [ 5.; 10.; 3.; 7.; 2. ]) () in
  Span.span s "a" (fun () -> Span.mark s "m");
  let ts = Array.map (function
      | Span.Begin b -> b.t
      | Span.End_ e -> e.t
      | Span.Mark m -> m.t)
      (Span.entries s)
  in
  Array.iteri
    (fun i t -> if i > 0 then Alcotest.(check bool) "non-decreasing" true (t >= ts.(i - 1)))
    ts;
  match Span.check_nesting ~require_closed:true (Span.entries s) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "nesting under clock regression: %s" m

let test_ring_overwrite () =
  let cap = 8 in
  let s = Span.recorder ~capacity:cap () in
  for _ = 1 to 50 do
    Span.span s "w" (fun () -> ())
  done;
  Alcotest.(check int) "seen everything" 100 (Span.seen s);
  Alcotest.(check int) "ring bounded" cap (Array.length (Span.entries s));
  Alcotest.(check int) "overwritten = seen - kept" (100 - cap) (Span.overwritten s);
  (* the surviving suffix is balanced begin/end pairs of a leaf span,
     so even the wrapped window still nests *)
  match Span.check_nesting (Span.entries s) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "wrapped window: %s" m

let test_capacity_validated () =
  Alcotest.check_raises "capacity 1 rejected"
    (Invalid_argument "Span.recorder: capacity must be >= 2") (fun () ->
      ignore (Span.recorder ~capacity:1 ()))

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

let test_folded_self_time () =
  (* outer [10us..30us] with a child [20us..24us]: outer self = 16us,
     child self = 4us — self time is total minus children *)
  let us x = x *. 1e-6 in
  let s =
    Span.recorder
      ~clock:(fake_clock [ us 0.; us 10.; us 20.; us 24.; us 30. ])
      ()
  in
  Span.span s "outer" (fun () -> Span.span s "inner" (fun () -> ()));
  Alcotest.(check string) "folded lines" "outer 16\nouter;inner 4\n"
    (Span.to_folded (Span.entries s))

let test_folded_skips_lost_begins () =
  let s = Span.recorder ~capacity:3 () in
  (* the outer Begin is overwritten by the leaf churn; its End_ must be
     skipped, not crash or attribute garbage *)
  Span.span s "outer" (fun () ->
      for _ = 1 to 5 do
        Span.span s "leaf" (fun () -> ())
      done);
  ignore (Span.to_folded (Span.entries s))

let test_chrome_parses_and_balances () =
  let s = Span.recorder () in
  Span.span s "a" (fun () ->
      Span.span s "b" (fun () -> Span.mark s "ev" ~args:[ ("k", "v") ]));
  let json = Span.to_chrome (Span.entries s) in
  match Json.member "traceEvents" (Json.parse json) with
  | Some (Json.Arr evs) ->
      Alcotest.(check int) "one object per entry" 5 (List.length evs);
      let count ph =
        List.length
          (List.filter
             (fun e -> Json.member "ph" e = Some (Json.Str ph))
             evs)
      in
      Alcotest.(check int) "begins balance ends" (count "B") (count "E");
      Alcotest.(check int) "one instant" 1 (count "i");
      List.iter
        (fun e ->
          match Json.member "ts" e with
          | Some (Json.Num ts) ->
              Alcotest.(check bool) "ts is relative usec" true (ts >= 0.)
          | _ -> Alcotest.fail "missing ts")
        evs
  | _ -> Alcotest.fail "no traceEvents array"

let test_entry_json_roundtrip () =
  let nasty = "a\"b\\c\nd\te" in
  let s = Span.recorder () in
  Span.span s nasty (fun () -> Span.mark s "mark" ~args:[ (nasty, nasty); ("k", "") ]);
  Array.iter
    (fun e ->
      let line = Span.entry_to_json e in
      let e' = Span.entry_of_json line in
      (* timestamps travel through %.9f: compare to that precision *)
      let norm = function
        | Span.Begin b -> Span.Begin { b with t = 0. }
        | Span.End_ en -> Span.End_ { en with t = 0. }
        | Span.Mark m -> Span.Mark { m with t = 0. }
      in
      Alcotest.(check bool) "fields round-trip" true (norm e = norm e');
      let t = function Span.Begin b -> b.t | Span.End_ x -> x.t | Span.Mark m -> m.t in
      Alcotest.(check bool) "time round-trips to 1ns" true
        (Float.abs (t e -. t e') < 1e-8))
    (Span.entries s)

(* ------------------------------------------------------------------ *)
(* Real runs nest                                                      *)
(* ------------------------------------------------------------------ *)

let test_distmis_profile_nests () =
  let g = fst (Gen.udg (rng ()) ~n:18 ~side:4. ~radius:1.3) in
  let s = Span.recorder () in
  let (_ : Dist_mis.result) =
    Dist_mis.run ~spans:s ~mis:Mis.Local_min ~variant:Dist_mis.General g
  in
  Alcotest.(check int) "all spans closed" 0 (Span.depth s);
  Alcotest.(check bool) "spans recorded" true (Span.seen s > 4);
  (match Span.check_nesting ~require_closed:true (Span.entries s) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "distmis profile: %s" m);
  let folded = Span.to_folded (Span.entries s) in
  Alcotest.(check bool) "folded mentions the phases" true
    (let has sub =
       let n = String.length folded and k = String.length sub in
       let rec go i = i + k <= n && (String.sub folded i k = sub || go (i + 1)) in
       go 0
     in
     has "distmis;distmis.mis" && has "sync.round")

let test_spans_do_not_perturb_run () =
  let g = fst (Gen.udg (rng ()) ~n:16 ~side:4. ~radius:1.3) in
  let plain = Dfs_sched.run g in
  let s = Span.recorder () in
  let spanned = Dfs_sched.run ~spans:s g in
  Alcotest.(check bool) "same schedule" true
    (Fdlsp_color.Schedule.colors plain.Dfs_sched.schedule
    = Fdlsp_color.Schedule.colors spanned.Dfs_sched.schedule);
  Alcotest.(check bool) "same stats" true (plain.Dfs_sched.stats = spanned.Dfs_sched.stats)

let test_service_spans_nest () =
  let g = Gen.gnm (rng ()) ~n:24 ~m:40 in
  let s = Span.recorder () in
  let svc = Service.create ~spans:s (Dfs_sched.run g).Dfs_sched.schedule in
  List.iter
    (fun b -> ignore (Service.apply svc b))
    (Service.synth svc ~seed:7 ~events:60 ~batch:6);
  (match Span.check_nesting ~require_closed:true (Span.entries s) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "service spans: %s" m);
  let names =
    Array.to_list (Span.entries s)
    |> List.filter_map (function Span.Begin b -> Some b.name | _ -> None)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "service.coalesce"; "service.repair"; "service.rebuild" ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "fdlsp-flight" ".fdr" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let populated_flight () =
  let fr = Flight.create ~span_capacity:4096 ~health_capacity:4 () in
  let g = fst (Gen.udg (rng ()) ~n:12 ~side:4. ~radius:1.4) in
  let (_ : Dist_mis.result) =
    Dist_mis.run
      ~spans:(Flight.spans fr)
      ~mis:Mis.Local_min ~variant:Dist_mis.General g
  in
  Flight.note_health fr {|{"health":1}|};
  Flight.note_health fr {|{"health":2}|};
  fr

let test_flight_roundtrip () =
  with_temp (fun path ->
      let fr = populated_flight () in
      Flight.dump fr ~reason:"unit \"test\"" path;
      let d = Flight.load path in
      Alcotest.(check string) "reason survives quoting" "unit \"test\"" d.Flight.d_reason;
      Alcotest.(check bool) "complete" true d.Flight.d_complete;
      Alcotest.(check int) "all spans kept" (Span.seen (Flight.spans fr))
        (Array.length d.Flight.d_spans + d.Flight.d_spans_overwritten);
      Alcotest.(check (list string)) "health tail kept" [ {|{"health":1}|}; {|{"health":2}|} ]
        d.Flight.d_health;
      Alcotest.(check (list string)) "no open spans at dump" [] d.Flight.d_open;
      (* the story renderer must cope with whatever load returns *)
      let story = Format.asprintf "%a" Flight.pp_story d in
      Alcotest.(check bool) "story mentions reason" true
        (String.length story > 0
        &&
        let has sub =
          let n = String.length story and k = String.length sub in
          let rec go i = i + k <= n && (String.sub story i k = sub || go (i + 1)) in
          go 0
        in
        has "unit \"test\"" && has "span nesting: ok"))

let test_flight_truncation_tolerated () =
  with_temp (fun path ->
      let fr = populated_flight () in
      Flight.dump fr ~reason:"trunc" path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* chop the end marker and half the last section off: exactly what
         a crash mid-write would leave if dumps were not atomic *)
      let cut = String.length full * 3 / 4 in
      let oc = open_out path in
      output_string oc (String.sub full 0 cut);
      close_out oc;
      let d = Flight.load path in
      Alcotest.(check bool) "incomplete flagged" false d.Flight.d_complete;
      ignore (Format.asprintf "%a" Flight.pp_story d))

(* Older writers dumped a "trace" section between spans and health;
   load skips it and keeps the rest. *)
let test_flight_skips_trace_section () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc
        {|{"flight":"fdlsp","version":1,"reason":"old","t":1.5,"spans":0,"spans_overwritten":0,"trace":1,"trace_overwritten":0,"health":1,"open":[]}
{"section":"spans"}
{"section":"trace"}
{"ev":"phase","t":0,"label":"dmgc","scale":1}
{"section":"health"}
{"health":1}
{"end":true}
|};
      close_out oc;
      let d = Flight.load path in
      Alcotest.(check string) "reason" "old" d.Flight.d_reason;
      Alcotest.(check bool) "complete" true d.Flight.d_complete;
      Alcotest.(check (list string)) "health kept" [ {|{"health":1}|} ] d.Flight.d_health)

let test_flight_rejects_garbage () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc "definitely not a flight dump\n";
      close_out oc;
      match Flight.load path with
      | (_ : Flight.dump) -> Alcotest.fail "garbage accepted"
      | exception Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* Metrics.Window reconciliation                                       *)
(* ------------------------------------------------------------------ *)

let test_window_reconciles () =
  let reg = Metrics.create () in
  let g = Gen.gnm (rng ()) ~n:30 ~m:60 in
  let svc = Service.create ~metrics:(Metrics.sink reg) (Dfs_sched.run g).Dfs_sched.schedule in
  let w = Metrics.Window.start reg in
  let repair = Metrics.Name.service_repair ^ "_seconds" in
  let ev_sum = ref 0 and obs_sum = ref 0 and sec_sum = ref 0. in
  List.iter
    (fun b ->
      ignore (Service.apply svc b);
      ev_sum := !ev_sum + Metrics.Window.counter_delta w Metrics.Name.service_events;
      obs_sum := !obs_sum + Metrics.Window.observations w repair;
      sec_sum := !sec_sum +. Metrics.Window.sum_delta w repair;
      let p99 = Metrics.Window.quantile w repair 0.99 in
      Alcotest.(check bool) "window p99 defined when observed" true
        (Metrics.Window.observations w repair = 0 || not (Float.is_nan p99));
      Metrics.Window.advance w)
    (Service.synth svc ~seed:11 ~events:120 ~batch:8);
  Alcotest.(check int) "event deltas sum to the counter"
    (Metrics.counter_value reg Metrics.Name.service_events)
    !ev_sum;
  (match Metrics.histogram reg repair with
  | Some h ->
      Alcotest.(check int) "observation deltas sum to the count"
        (Metrics.Hist.count h) !obs_sum;
      Alcotest.(check bool) "second deltas sum to the histogram sum" true
        (Float.abs (Metrics.Hist.sum h -. !sec_sum)
        <= 1e-9 *. (1. +. Float.abs (Metrics.Hist.sum h)))
  | None -> Alcotest.fail "repair histogram missing");
  (* a freshly advanced window has seen nothing *)
  Alcotest.(check int) "empty window: no events" 0
    (Metrics.Window.counter_delta w Metrics.Name.service_events);
  Alcotest.(check bool) "empty window: NaN quantile" true
    (Float.is_nan (Metrics.Window.quantile w repair 0.5))

let test_window_unknown_names () =
  let reg = Metrics.create () in
  let w = Metrics.Window.start reg in
  Alcotest.(check int) "unknown counter delta is 0" 0
    (Metrics.Window.counter_delta w "nope_total");
  Alcotest.(check int) "unknown histogram observes 0" 0
    (Metrics.Window.observations w "nope_seconds");
  Alcotest.(check bool) "unknown histogram quantile NaN" true
    (Float.is_nan (Metrics.Window.quantile w "nope_seconds" 0.99))

let () =
  Alcotest.run "fdlsp_span"
    [
      ( "sink",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "monotone clamp" `Quick test_monotone_clamp;
          Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "capacity validated" `Quick test_capacity_validated;
        ] );
      ( "export",
        [
          Alcotest.test_case "folded self time" `Quick test_folded_self_time;
          Alcotest.test_case "folded skips lost begins" `Quick
            test_folded_skips_lost_begins;
          Alcotest.test_case "chrome parses + balances" `Quick
            test_chrome_parses_and_balances;
          Alcotest.test_case "entry json round-trip" `Quick test_entry_json_roundtrip;
        ] );
      ( "runs",
        [
          Alcotest.test_case "distmis profile nests" `Quick test_distmis_profile_nests;
          Alcotest.test_case "spans do not perturb the run" `Quick
            test_spans_do_not_perturb_run;
          Alcotest.test_case "service spans nest" `Quick test_service_spans_nest;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump/load round-trip" `Quick test_flight_roundtrip;
          Alcotest.test_case "truncation tolerated" `Quick
            test_flight_truncation_tolerated;
          Alcotest.test_case "older dumps with a trace section load" `Quick
            test_flight_skips_trace_section;
          Alcotest.test_case "garbage rejected" `Quick test_flight_rejects_garbage;
        ] );
      ( "window",
        [
          Alcotest.test_case "deltas reconcile with counters" `Quick
            test_window_reconciles;
          Alcotest.test_case "unknown names" `Quick test_window_unknown_names;
        ] );
    ]
