(* Tests for the metrics registry: histogram algebra (bucket
   monotonicity, merge associativity, quantile bounds), the three
   exposition formats (kv / JSON / Prometheus) agreeing on every counter
   and the Prometheus text passing a line-by-line grammar check, sink
   semantics (label precedence, scaling, merging), profiling hooks, and
   the Stats reconciliation contract: every instrumented protocol's
   registry must reproduce, via [Metrics.to_stats], exactly the
   [Stats.t] the run returned. *)

open Fdlsp_graph
open Fdlsp_sim
open Fdlsp_core

let rng = Generators.rng [| 0x3E7; 9 |]
let qtest name ?(count = 50) arb prop = Generators.qtest name ~count arb prop

(* ------------------------------------------------------------------ *)
(* Histogram algebra                                                   *)
(* ------------------------------------------------------------------ *)

(* observations spanning the whole bucket ladder, zeros included *)
let arb_observations =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (map
         (fun (m, e) -> m *. Float.pow 2. (float_of_int e))
         (pair (float_bound_inclusive 1.) (int_range (-22) 28))))

let hist_of xs =
  let h = Metrics.Hist.create () in
  List.iter (Metrics.Hist.observe h) xs;
  h

let prop_hist_cumulative_monotone =
  qtest "Hist: cumulative buckets non-decreasing, last = count" ~count:200
    arb_observations (fun xs ->
      let h = hist_of xs in
      let cum = Metrics.Hist.cumulative h in
      let ok = ref true in
      Array.iteri
        (fun i (_, c) -> if i > 0 && c < snd cum.(i - 1) then ok := false)
        cum;
      !ok
      && snd cum.(Array.length cum - 1) = Metrics.Hist.count h
      && Metrics.Hist.count h = List.length xs)

let prop_hist_merge_associative =
  qtest "Hist: merge is associative and commutative" ~count:200
    QCheck2.Gen.(triple arb_observations arb_observations arb_observations)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      let open Metrics.Hist in
      let l = merge (merge a b) c and r = merge a (merge b c) in
      let close x y =
        x = y || Float.abs (x -. y) <= 1e-9 *. (1. +. Float.abs x +. Float.abs y)
      in
      buckets l = buckets r
      && count l = count r
      && close (sum l) (sum r)
      && min_value l = min_value r
      && max_value l = max_value r
      && buckets (merge a b) = buckets (merge b a))

let prop_hist_quantile_bounds =
  qtest "Hist: quantiles within [min,max] and monotone in q" ~count:200
    arb_observations (fun xs ->
      let h = hist_of xs in
      let qs = [ 0.; 0.1; 0.25; 0.5; 0.9; 0.99; 1. ] in
      if Metrics.Hist.count h = 0 then
        List.for_all (fun q -> Float.is_nan (Metrics.Hist.quantile h q)) qs
      else begin
        let vals = List.map (Metrics.Hist.quantile h) qs in
        List.for_all
          (fun v ->
            Metrics.Hist.min_value h <= v && v <= Metrics.Hist.max_value h)
          vals
        &&
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        mono vals
      end)

(* ------------------------------------------------------------------ *)
(* Sink semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_label_precedence () =
  let reg = Metrics.create () in
  let outer = Metrics.with_label (Metrics.sink reg) "k" "outer" in
  let inner = Metrics.with_label outer "k" "inner" in
  Metrics.inc inner "c_total";
  Alcotest.(check int) "outer wins" 1
    (Metrics.counter_value ~labels:[ ("k", "outer") ] reg "c_total");
  Alcotest.(check int) "inner absent" 0
    (Metrics.counter_value ~labels:[ ("k", "inner") ] reg "c_total")

let test_scale () =
  let reg = Metrics.create () in
  let m = Metrics.with_scale 5 (Metrics.sink reg) in
  Metrics.inc ~by:3 m "c_total";
  Metrics.inc ~by:2 (Metrics.with_scale 2 m) "c_total";
  Alcotest.(check int) "scaled increments" ((3 * 5) + (2 * 5 * 2))
    (Metrics.counter_value reg "c_total");
  Metrics.gauge m "g" 7.;
  Alcotest.(check bool) "gauges unscaled" true
    (Metrics.gauge_value reg "g" = Some 7.)

let test_null_sink () =
  Alcotest.(check bool) "disabled" false (Metrics.enabled Metrics.null);
  Alcotest.(check bool) "no registry" true (Metrics.registry Metrics.null = None);
  Metrics.inc Metrics.null "c_total";
  Metrics.gauge Metrics.null "g" 1.;
  Metrics.observe Metrics.null "h" 1.;
  Alcotest.(check int) "timed is transparent" 41
    (Metrics.timed Metrics.null "t" (fun () -> 41))

let test_merge_into () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.inc ~by:2 (Metrics.sink a) "c_total";
  Metrics.inc ~by:3 (Metrics.sink b) "c_total";
  Metrics.gauge (Metrics.sink a) "g" 1.;
  Metrics.gauge (Metrics.sink b) "g" 9.;
  Metrics.observe (Metrics.sink a) "h" 1.;
  Metrics.observe (Metrics.sink b) "h" 4.;
  Metrics.merge_into ~dst:a b;
  Alcotest.(check int) "counters add" 5 (Metrics.counter_value a "c_total");
  Alcotest.(check bool) "gauges overwrite" true (Metrics.gauge_value a "g" = Some 9.);
  Alcotest.(check int) "histograms merge" 2
    (match Metrics.histogram a "h" with
    | Some h -> Metrics.Hist.count h
    | None -> 0)

let test_kv_is_order_independent () =
  let fill order =
    let reg = Metrics.create () in
    let m = Metrics.sink reg in
    List.iter
      (fun i ->
        Metrics.inc ~by:i (Metrics.with_label m "i" (string_of_int (i mod 2))) "c_total";
        Metrics.gauge m "g" 5.;
        Metrics.observe m "h" (float_of_int i))
      order;
    Metrics.to_kv reg
  in
  Alcotest.(check string) "sorted exposition" (fill [ 1; 2; 3; 4 ]) (fill [ 4; 3; 2; 1 ])

let test_timed () =
  let reg = Metrics.create () in
  let m = Metrics.sink reg in
  let r = Metrics.timed m "work" (fun () -> List.length (List.init 50_000 Fun.id)) in
  Alcotest.(check int) "result passed through" 50_000 r;
  (match Metrics.histogram reg "work_seconds" with
  | Some h -> Alcotest.(check int) "one timing sample" 1 (Metrics.Hist.count h)
  | None -> Alcotest.fail "work_seconds missing");
  Alcotest.(check bool) "allocation observed" true
    (Metrics.counter_value reg "work_alloc_words_total" > 0);
  (* records even when the section raises *)
  (try ignore (Metrics.timed m "boom" (fun () -> failwith "x")) with Failure _ -> ());
  match Metrics.histogram reg "boom_seconds" with
  | Some h -> Alcotest.(check int) "raised section still timed" 1 (Metrics.Hist.count h)
  | None -> Alcotest.fail "boom_seconds missing"

(* Nested [timed] sections attribute independently: the outer section's
   wall time and allocation include the inner's (no subtraction), and
   an exception raised two levels deep still closes both. *)
let test_timed_nested () =
  let reg = Metrics.create () in
  let m = Metrics.sink reg in
  let work () = ignore (List.init 20_000 Fun.id) in
  let hist name =
    match Metrics.histogram reg (name ^ "_seconds") with
    | Some h -> h
    | None -> Alcotest.failf "%s_seconds missing" name
  in
  Metrics.timed m "outer" (fun () ->
      Metrics.timed m "inner" work;
      Metrics.timed m "inner" work);
  Alcotest.(check int) "outer timed once" 1 (Metrics.Hist.count (hist "outer"));
  Alcotest.(check int) "inner timed twice" 2 (Metrics.Hist.count (hist "inner"));
  Alcotest.(check bool) "outer wall time covers inner" true
    (Metrics.Hist.sum (hist "outer") >= Metrics.Hist.sum (hist "inner"));
  let oa = Metrics.counter_value reg "outer_alloc_words_total"
  and ia = Metrics.counter_value reg "inner_alloc_words_total" in
  if oa < ia then Alcotest.failf "outer allocation %d < inner %d" oa ia;
  (* an exception through both levels still records one sample each *)
  (try Metrics.timed m "o" (fun () -> Metrics.timed m "i" (fun () -> failwith "x"))
   with Failure _ -> ());
  Alcotest.(check int) "outer counted after raise" 1 (Metrics.Hist.count (hist "o"));
  Alcotest.(check int) "inner counted after raise" 1 (Metrics.Hist.count (hist "i"))

(* ------------------------------------------------------------------ *)
(* Exposition formats                                                  *)
(* ------------------------------------------------------------------ *)

(* kv / Prometheus sample lines both read as [name[{...}] value]. *)
let sample_of_line line =
  match String.index_opt line '{' with
  | Some i ->
      let close = String.rindex line '}' in
      ( String.sub line 0 i,
        String.sub line (close + 2) (String.length line - close - 2) )
  | None -> (
      match String.index_opt line ' ' with
      | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> (line, ""))

let sum_text_counters text name =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         if line = "" || line.[0] = '#' then acc
         else
           let n, v = sample_of_line line in
           if n = name then acc + int_of_float (float_of_string v) else acc)
       0

let sum_json_counters json name =
  match Json.member "metrics" (Json.parse json) with
  | Some (Json.Arr ms) ->
      List.fold_left
        (fun acc m ->
          match
            (Json.member "name" m, Json.member "kind" m,
             Json.member "value" m)
          with
          | Some (Json.Str n), Some (Json.Str "counter"),
            Some (Json.Num v)
            when n = name ->
              acc + int_of_float v
          | _ -> acc)
        0 ms
  | _ -> Alcotest.fail "no metrics array"

let test_formats_agree () =
  let g = fst (Gen.udg (rng ()) ~n:16 ~side:4. ~radius:1.3) in
  let reg = Metrics.create () in
  let r =
    Dist_mis.run
      ~metrics:(Metrics.sink reg)
      ~mis:(Mis.Luby (Random.State.make [| 2; 7 |]))
      ~variant:Dist_mis.Gbg g
  in
  let kv = Metrics.to_kv reg
  and json = Metrics.to_json reg
  and prom = Metrics.to_prometheus reg in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) ("kv " ^ name) expected (sum_text_counters kv name);
      Alcotest.(check int) ("prom " ^ name) expected (sum_text_counters prom name);
      Alcotest.(check int) ("json " ^ name) expected (sum_json_counters json name))
    [
      (Metrics.Name.rounds, r.Dist_mis.stats.Stats.rounds);
      (Metrics.Name.messages, r.Dist_mis.stats.Stats.messages);
      (Metrics.Name.volume, r.Dist_mis.stats.Stats.volume);
      (Metrics.Name.dropped, r.Dist_mis.stats.Stats.dropped);
    ];
  Alcotest.(check bool) "json parses" true (Json.parse json <> Json.Null);
  let type_lines =
    String.split_on_char '\n' prom
    |> List.filter (fun l -> l = Printf.sprintf "# TYPE %s counter" Metrics.Name.messages)
  in
  Alcotest.(check int) "one TYPE line per family" 1 (List.length type_lines)

(* Line-by-line Prometheus text exposition grammar. *)
let prom_grammar_ok text =
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let valid_name s =
    s <> ""
    && (not (s.[0] >= '0' && s.[0] <= '9'))
    && String.for_all is_name_char s
  in
  (* current family from the last # TYPE line; samples must belong to it *)
  let family = ref ("", "") in
  let seen_families = Hashtbl.create 8 in
  let check_line line =
    if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; kind ] ->
          if Hashtbl.mem seen_families name then false
          else begin
            Hashtbl.add seen_families name ();
            family := (name, kind);
            valid_name name && List.mem kind [ "counter"; "gauge"; "histogram" ]
          end
      | _ -> false
    end
    else begin
      (* sample line: name[{k="v",...}] value *)
      let n = String.length line in
      let i = ref 0 in
      while !i < n && is_name_char line.[!i] do incr i done;
      let name = String.sub line 0 !i in
      let labels_ok =
        if !i < n && line.[!i] = '{' then begin
          incr i;
          let ok = ref true in
          let fin = ref false in
          while not !fin && !ok do
            let j = ref !i in
            while !j < n && is_name_char line.[!j] do incr j done;
            if !j >= n || line.[!j] <> '=' || !j = !i then ok := false
            else begin
              let k = ref (!j + 1) in
              if !k >= n || line.[!k] <> '"' then ok := false
              else begin
                incr k;
                (* escape-aware: a backslash consumes the next char, so a
                   value ending in an escaped backslash still terminates *)
                while !k < n && line.[!k] <> '"' do
                  if line.[!k] = '\\' then k := !k + 2 else incr k
                done;
                if !k >= n then ok := false
                else begin
                  incr k;
                  if !k < n && line.[!k] = ',' then i := !k + 1
                  else if !k < n && line.[!k] = '}' then begin
                    i := !k + 1;
                    fin := true
                  end
                  else ok := false
                end
              end
            end
          done;
          !ok
        end
        else true
      in
      let value_ok =
        !i < n && line.[!i] = ' '
        && float_of_string_opt (String.sub line (!i + 1) (n - !i - 1)) <> None
      in
      let fam_name, fam_kind = !family in
      let family_ok =
        match fam_kind with
        | "histogram" ->
            List.mem name
              [ fam_name ^ "_bucket"; fam_name ^ "_sum"; fam_name ^ "_count" ]
        | _ -> name = fam_name
      in
      valid_name name && labels_ok && value_ok && family_ok
    end
  in
  String.split_on_char '\n' text
  |> List.for_all (fun line -> line = "" || check_line line)

let arb_registry =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (triple (int_range 0 2) (int_range 0 5)
         (pair (int_range 0 3) (float_bound_inclusive 100.))))

let prop_prometheus_grammar =
  qtest "Prometheus exposition passes the line grammar" ~count:200 arb_registry
    (fun spec ->
      let reg = Metrics.create () in
      let label_pool =
        [ []; [ ("a", "x") ]; [ ("a", "y"); ("b", "with space") ];
          [ ("b", "quo\"te\\back") ] ]
      in
      List.iter
        (fun (kind, name_i, (label_i, v)) ->
          let labels = List.nth label_pool (label_i mod List.length label_pool) in
          let m = Metrics.sink ~labels reg in
          match kind with
          | 0 -> Metrics.inc ~by:(int_of_float v) m (Printf.sprintf "c%d_total" name_i)
          | 1 -> Metrics.gauge m (Printf.sprintf "g%d" name_i) v
          | _ -> Metrics.observe m (Printf.sprintf "h%d" name_i) v)
        spec;
      prom_grammar_ok (Metrics.to_prometheus reg))

(* Inverse of the exposition escaping: only backslash, double-quote and
   newline are escaped by [to_prometheus]; anything else after a
   backslash is kept verbatim so a damaged line cannot silently decode
   to the wrong value. *)
let prom_unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\\' && !i + 1 < n then begin
      (match s.[!i + 1] with
      | '\\' -> Buffer.add_char b '\\'
      | '"' -> Buffer.add_char b '"'
      | 'n' -> Buffer.add_char b '\n'
      | c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c);
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Escape-aware extraction of [key]'s raw (still escaped) value from a
   sample line — [String.index] would be fooled by ['"'] or [','] inside
   values.  Assumes the line's label set contains [key] first. *)
let label_value line key =
  match String.index_opt line '{' with
  | None -> None
  | Some brace ->
      let n = String.length line in
      let prefix = key ^ "=\"" in
      let plen = String.length prefix in
      let start = brace + 1 in
      if start + plen > n || String.sub line start plen <> prefix then None
      else begin
        let from = start + plen in
        let j = ref from in
        let fin = ref None in
        while !fin = None && !j < n do
          if line.[!j] = '\\' then j := !j + 2
          else if line.[!j] = '"' then fin := Some !j
          else incr j
        done;
        Option.map (fun e -> String.sub line from (e - from)) !fin
      end

(* Label values drawn to hit every escaping hazard: backslashes, quotes,
   newlines, and the grammar's own delimiters. *)
let arb_label_values =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (string_size ~gen:
         (frequency
            [ (6, printable); (2, return '\\'); (2, return '"');
              (2, return '\n'); (1, oneofl [ '\t'; ','; '}'; '{'; '=' ]) ])
         (int_range 0 20)))

let prop_prometheus_label_roundtrip =
  qtest "arbitrary label values survive the exposition line grammar" ~count:200
    arb_label_values (fun values ->
      let reg = Metrics.create () in
      List.iteri
        (fun i v ->
          Metrics.gauge
            (Metrics.sink ~labels:[ ("l", v) ] reg)
            (Printf.sprintf "rt%d" i)
            (float_of_int i))
        values;
      let prom = Metrics.to_prometheus reg in
      if not (prom_grammar_ok prom) then false
      else
        let lines = String.split_on_char '\n' prom in
        List.for_all
          (fun (i, v) ->
            let p = Printf.sprintf "rt%d{" i in
            let plen = String.length p in
            match
              List.find_opt
                (fun l -> String.length l > plen && String.sub l 0 plen = p)
                lines
            with
            | None -> false
            | Some line -> (
                match label_value line "l" with
                | None -> false
                | Some raw -> prom_unescape raw = v))
          (List.mapi (fun i v -> (i, v)) values))

let test_prometheus_grammar_real_run () =
  let g = fst (Gen.udg (rng ()) ~n:14 ~side:4. ~radius:1.3) in
  let reg = Metrics.create () in
  ignore
    (Dist_mis.run
       ~metrics:(Metrics.sink reg)
       ~faults:(Fault.uniform ~seed:5 0.1)
       ~mis:(Mis.Luby (Random.State.make [| 2; 7 |]))
       ~variant:Dist_mis.Gbg g);
  ignore (Dfs_sched.run ~metrics:(Metrics.sink reg) g);
  Alcotest.(check bool) "grammar" true (prom_grammar_ok (Metrics.to_prometheus reg))

(* ------------------------------------------------------------------ *)
(* Stats reconciliation: registry reproduces returned Stats exactly    *)
(* ------------------------------------------------------------------ *)

let prop_distmis_reconciles =
  qtest "DistMIS: to_stats = returned stats (raw sync)" ~count:30
    (Generators.arb_gnp ~max_n:12 ~max_p:0.5 ())
    (fun g ->
      let reg = Metrics.create () in
      let r =
        Dist_mis.run ~metrics:(Metrics.sink reg) ~mis:Mis.Local_min
          ~variant:Dist_mis.General g
      in
      Metrics.to_stats reg = r.Dist_mis.stats)

let prop_distmis_reconciles_under_faults =
  qtest "DistMIS: to_stats = returned stats (ARQ under loss)" ~count:20
    (Generators.arb_gnp ~min_n:2 ~max_n:10 ~max_p:0.5 ())
    (fun g ->
      let reg = Metrics.create () in
      let r =
        Dist_mis.run ~metrics:(Metrics.sink reg)
          ~faults:(Fault.uniform ~seed:13 0.15)
          ~mis:(Mis.Luby (Random.State.make [| 4; 2 |]))
          ~variant:Dist_mis.General g
      in
      Metrics.to_stats reg = r.Dist_mis.stats)

let prop_distmis_phases_partition =
  qtest "DistMIS: per-phase messages partition the total" ~count:30
    (Generators.arb_gnp ~max_n:12 ~max_p:0.5 ())
    (fun g ->
      let reg = Metrics.create () in
      let r =
        Dist_mis.run ~metrics:(Metrics.sink reg) ~mis:Mis.Local_min
          ~variant:Dist_mis.General g
      in
      let msgs phase =
        (Metrics.to_stats ~labels:[ ("phase", phase) ] reg).Stats.messages
      in
      msgs "mis" + msgs "secondary-mis" + msgs "color"
      = r.Dist_mis.stats.Stats.messages)

let prop_dfs_reconciles =
  qtest "DFS: to_stats = returned stats" ~count:30
    (Generators.arb_gnp ~max_n:12 ~max_p:0.5 ())
    (fun g ->
      let reg = Metrics.create () in
      let r = Dfs_sched.run ~metrics:(Metrics.sink reg) g in
      Metrics.to_stats reg = r.Dfs_sched.stats)

let prop_dmgc_reconciles =
  qtest "D-MGC: to_stats = returned stats" ~count:30
    (Generators.arb_gnp ~max_n:12 ~max_p:0.5 ())
    (fun g ->
      let reg = Metrics.create () in
      let r = Dmgc.run ~metrics:(Metrics.sink reg) g in
      Metrics.to_stats reg = r.Dmgc.stats)

let prop_stabilize_reconciles =
  qtest "Stabilize: to_stats and repair counters match the report" ~count:20
    (Generators.arb_gnp ~min_n:2 ~max_n:10 ~max_p:0.5 ())
    (fun g ->
      let n = Graph.n g in
      let faults =
        Fault.make ~seed:7
          ~blips:(Fault.scatter_blips ~seed:7 ~n ~count:(max 1 (n / 3)) ~horizon:5 ())
          ()
      in
      let sched = (Dfs_sched.run g).Dfs_sched.schedule in
      let reg = Metrics.create () in
      let r = Stabilize.run ~faults ~metrics:(Metrics.sink reg) g sched in
      Metrics.to_stats reg = r.Stabilize.stats
      && Metrics.counter_value reg Metrics.Name.detects = r.Stabilize.detects
      && Metrics.counter_value reg Metrics.Name.recolorings = r.Stabilize.recolorings)

let test_metrics_is_transparent () =
  let g = fst (Gen.udg (rng ()) ~n:16 ~side:4. ~radius:1.3) in
  let plain = Dfs_sched.run g in
  let reg = Metrics.create () in
  let metered = Dfs_sched.run ~metrics:(Metrics.sink reg) g in
  Alcotest.(check bool) "same schedule" true
    (Fdlsp_color.Schedule.colors plain.Dfs_sched.schedule
    = Fdlsp_color.Schedule.colors metered.Dfs_sched.schedule);
  Alcotest.(check bool) "same stats" true
    (plain.Dfs_sched.stats = metered.Dfs_sched.stats)

(* ------------------------------------------------------------------ *)
(* Replay cross-check                                                  *)
(* ------------------------------------------------------------------ *)

let traced_metriced_distmis () =
  let g = fst (Gen.udg (rng ()) ~n:14 ~side:4. ~radius:1.4) in
  let plan = Fault.uniform ~seed:11 0.1 in
  let trace = Trace.memory () in
  let reg = Metrics.create () in
  let m = Metrics.sink reg in
  let r =
    Dist_mis.run ~faults:plan ~trace ~metrics:m
      ~mis:(Mis.Luby (Random.State.make [| 3; 14 |]))
      ~variant:Dist_mis.Gbg g
  in
  (g, plan, Trace.events trace, r, m)

let test_replay_accepts_registry () =
  let g, plan, events, r, m = traced_metriced_distmis () in
  match
    Trace.Replay.check ~plan ~stats:r.Dist_mis.stats ~metrics:m
      ~require_complete:true g events
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replay with metrics failed: %s" e

let test_replay_rejects_tampered_registry () =
  let g, plan, events, _, m = traced_metriced_distmis () in
  Metrics.inc m Metrics.Name.messages;
  match Trace.Replay.check ~plan ~metrics:m g events with
  | Ok _ -> Alcotest.fail "tampered registry accepted"
  | Error e ->
      Alcotest.(check bool) "mentions metrics" true
        (String.length e >= 8 && String.sub e 0 8 = "metrics:")

let traced_metriced_stabilize () =
  let g = fst (Gen.udg (rng ()) ~n:15 ~side:4. ~radius:1.3) in
  let n = Graph.n g in
  let plan =
    Fault.make ~seed:9
      ~blips:(Fault.scatter_blips ~seed:9 ~n ~count:4 ~horizon:6 ())
      ()
  in
  let sched = (Dfs_sched.run g).Dfs_sched.schedule in
  let trace = Trace.memory () in
  let reg = Metrics.create () in
  let m = Metrics.sink reg in
  ignore (Stabilize.run ~faults:plan ~trace ~metrics:m g sched);
  (g, plan, Trace.events trace, m)

let test_replay_stabilize_accepts_registry () =
  let g, plan, events, m = traced_metriced_stabilize () in
  match Trace.Replay.check_stabilize ~plan ~metrics:m g events with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "stabilize replay with metrics failed: %s" e

let test_replay_stabilize_rejects_tampered_registry () =
  let g, plan, events, m = traced_metriced_stabilize () in
  Metrics.inc m Metrics.Name.recolorings;
  match Trace.Replay.check_stabilize ~plan ~metrics:m g events with
  | Ok _ -> Alcotest.fail "tampered registry accepted"
  | Error _ -> ()

let () =
  Alcotest.run "fdlsp_metrics"
    [
      ( "hist",
        [
          prop_hist_cumulative_monotone;
          prop_hist_merge_associative;
          prop_hist_quantile_bounds;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "label precedence" `Quick test_label_precedence;
          Alcotest.test_case "counter scaling" `Quick test_scale;
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "merge_into" `Quick test_merge_into;
          Alcotest.test_case "kv order-independent" `Quick test_kv_is_order_independent;
          Alcotest.test_case "timed hook" `Quick test_timed;
          Alcotest.test_case "timed nesting" `Quick test_timed_nested;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "kv/json/prom agree" `Quick test_formats_agree;
          prop_prometheus_grammar;
          prop_prometheus_label_roundtrip;
          Alcotest.test_case "prom grammar on real run" `Quick
            test_prometheus_grammar_real_run;
        ] );
      ( "reconciliation",
        [
          prop_distmis_reconciles;
          prop_distmis_reconciles_under_faults;
          prop_distmis_phases_partition;
          prop_dfs_reconciles;
          prop_dmgc_reconciles;
          prop_stabilize_reconciles;
          Alcotest.test_case "metrics do not perturb the run" `Quick
            test_metrics_is_transparent;
        ] );
      ( "replay",
        [
          Alcotest.test_case "distmis registry accepted" `Quick
            test_replay_accepts_registry;
          Alcotest.test_case "distmis tampered registry rejected" `Quick
            test_replay_rejects_tampered_registry;
          Alcotest.test_case "stabilize registry accepted" `Quick
            test_replay_stabilize_accepts_registry;
          Alcotest.test_case "stabilize tampered registry rejected" `Quick
            test_replay_stabilize_rejects_tampered_registry;
        ] );
    ]
