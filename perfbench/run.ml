(* The repository benchmark.  See README.md.

     run.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--folded FILE]
     run.exe compare OLD.jsonl NEW.jsonl
     run.exe check [BENCHMARK.json]

   A run prints every metric as "name value unit" and, as its last
   line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
   It exits 1 when any correctness check failed. *)

open Harness
module W = Workloads
module Metrics = Fdlsp_sim.Metrics

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type phase = {
  a : acc;
  setup_times : float list;
  tracer : tracer option;
  loop_self : (string, float) Hashtbl.t;  (** span self-times up to the end of the ops *)
  live_mb : float;  (** live heap right after the prefix *)
  fingerprint : string;
}

(* Set the workload up at least [setups] times, and up to eight times
   as often while the set-ups take under a second in all, timing each
   and keeping the last instance; then run ops until at least the
   prefix is done and [seconds] have passed. *)
let run_phase (w : W.workload) ~seed ~tiny ~seconds ~setups ~traced =
  let tracer = if traced then Some (Harness.tracer ()) else None in
  let spans () = match tracer with Some t -> t.sink | None -> Span.null in
  let env = { W.seed; tiny; spans; metrics = (if traced then Some (Metrics.create ()) else None) } in
  let rec setup times =
    Gc.compact ();
    let inst, dt = stopwatch (fun () -> Span.span (spans ()) "bench.setup" (fun () -> w.setup env)) in
    let times = dt :: times in
    let k = List.length times in
    if k < setups || (k < 8 * setups && List.fold_left ( +. ) 0. times < 1.) then begin
      inst.dispose ();
      setup times
    end
    else (inst, times)
  in
  let inst, setup_times = setup [] in
  let a = acc ~prefix:(w.prefix ~tiny) in
  let deadline = now () +. seconds in
  let stop = ref false and live_mb = ref 0. in
  while (not !stop) && (a.op < a.prefix || now () < deadline) do
    if not (attempt a "op" (fun () -> inst.step a)) then stop := true;
    a.op <- a.op + 1;
    (* after the same ops on every run, whatever the machine speed *)
    if a.op = a.prefix then begin
      Gc.full_major ();
      live_mb := float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
    end;
    match tracer with
    | Some t when inst.fixed_sink -> if a.op >= a.prefix && nearly_full t then stop := true
    | Some t -> maybe_drain t
    | None -> ()
  done;
  Option.iter drain tracer;
  let loop_self = match tracer with Some t -> self_by_leaf t | None -> Hashtbl.create 1 in
  (match inst.finish a with
  | () -> ()
  | exception e ->
      a.attempted <- a.attempted + 1;
      a.failed <- a.failed + 1;
      note a ("finish: " ^ Printexc.to_string e));
  Option.iter drain tracer;
  { a; setup_times; tracer; loop_self; live_mb = !live_mb; fingerprint = inst.fingerprint }

(* ------------------------------------------------------------------ *)
(* Metric derivation                                                   *)
(* ------------------------------------------------------------------ *)

let lat_ms p q = 1e3 *. quantile ~n:100 ~i:q (List.rev p.a.lat)

let heap_peak_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end_values p =
  let a = p.a in
  let busy = List.fold_left ( +. ) 0. a.lat in
  [
    ("setup_s", median p.setup_times);
    ("op_p50_ms", lat_ms p 50);
    ("items_per_s", float_of_int a.items /. busy);
    ("live_mb", p.live_mb);
  ]

(* Span self-time metrics: (metric, span, per-what). *)
let span_metrics =
  [
    ("graph.gen_s", "graph.gen", `Setup);
    ("color.greedy_s", "color.greedy", `Setup);
    ("sync.run_ms", "sync.run", `Op);
    ("sync.round_ms", "sync.round", `Op);
    ("async.run_ms", "async.run", `Op);
    ("parallel.round_ms", "parallel.round", `Op);
    ("parallel.compute_ms", "parallel.compute", `Op);
    ("parallel.exchange_ms", "parallel.exchange", `Op);
    ("distmis.self_ms", "distmis", `Op);
    ("distmis.mis_ms", "distmis.mis", `Op);
    ("distmis.secondary-mis_ms", "distmis.secondary-mis", `Op);
    ("distmis.color_ms", "distmis.color", `Op);
    ("dfs.self_ms", "dfs", `Op);
    ("dmgc.vizing_ms", "dmgc.vizing", `Op);
    ("dmgc.orient_ms", "dmgc.orient", `Op);
    ("service.coalesce_ms", "service.coalesce", `Op);
    ("service.repair_self_ms", "service.repair", `Op);
    ("service.rebuild_ms", "service.rebuild", `Op);
    ("service.recolor_ms", "service.recolor", `Op);
    ("service.fixup_ms", "service.fixup", `Op);
    ("service.refine_ms", "service.refine", `Op);
    ("wal.append_ms", "wal.append", `Op);
    ("wal.fsync_ms", "wal.fsync", `Op);
    ("wal.recover_ms", "wal.recover", `Recover);
    ("bench.check_ms", "bench.check", `Op);
  ]

(* Per-layer values: wall times, exact counts and query cost from the
   untraced phase [u]; span self-times and engine gauges from the
   traced phase [t]. *)
let per_layer_values ~u ~t =
  let tbl = Hashtbl.create 64 in
  let put k v = Hashtbl.replace tbl k v in
  List.iter
    (fun (m : metric) ->
      if m.exact && Hashtbl.mem u.a.exact m.name then put m.name (per_prefix_op u.a m.name))
    per_layer;
  Hashtbl.iter put u.a.final;
  let per_call key =
    let calls = get u.a.sums (key ^ ".calls") in
    if calls > 0. then put (key ^ "_ms") (1e3 *. get u.a.sums key /. calls)
  in
  List.iter per_call [ "distmis"; "distmis_par"; "dfs"; "dmgc" ];
  let q = get u.a.sums "queries" in
  if q > 0. then put "query_ns" (1e9 *. get u.a.sums "query_s" /. q);
  put "op_p90_ms" (lat_ms u 90);
  put "op_p99_ms" (lat_ms u 99);
  put "heap_peak_mb" (heap_peak_mb ());
  (match t.tracer with
  | Some tr ->
      let ops = float_of_int t.a.op in
      List.iter
        (fun (name, span, per) ->
          let base =
            match per with
            | `Setup -> float_of_int (List.length t.setup_times)
            | `Op -> ops /. 1e3
            | `Recover -> get t.a.final "wal.recover.calls" /. 1e3
          in
          let self = get (if per = `Recover then self_by_leaf tr else t.loop_self) span in
          if self > 0. && base > 0. then put name (self /. base))
        span_metrics;
      put "span_overwritten" (float_of_int tr.overwritten)
  | None -> ());
  List.iter
    (fun k -> if Hashtbl.mem t.a.sums k then put k (get t.a.sums k /. float_of_int t.a.op))
    [ "parallel.barrier_frac"; "parallel.cut_frac" ];
  (* the same ops, traced and untraced: the prefix both phases ran *)
  let common = min (List.length u.a.lat) (List.length t.a.lat) in
  let first k l = List.filteri (fun i _ -> i < k) (List.rev l) |> List.fold_left ( +. ) 0. in
  put "trace_overhead_frac" ((first common t.a.lat /. first common u.a.lat) -. 1.);
  List.map (fun (m : metric) -> (m.name, Option.value (Hashtbl.find_opt tbl m.name) ~default:0.)) per_layer

type result = {
  workload : string;
  seed : int;
  traced : bool;
  seconds : float;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  values : (string * float) list;
  fingerprint : string;
}

let run_workload (w : W.workload) ~seed ~seconds ~traced ~tiny ~folded =
  Fun.protect ~finally:W.cleanup_tmp @@ fun () ->
  let phases, values =
    if not traced then
      let p = run_phase w ~seed ~tiny ~seconds ~setups:(if tiny then 1 else 3) ~traced:false in
      ([ p ], end_to_end_values p)
    else
      (* separate untraced and traced runs of the same ops: the first
         gives clean wall times, the second the per-layer split *)
      let u = run_phase w ~seed ~tiny ~seconds:(seconds /. 2.) ~setups:1 ~traced:false in
      let t = run_phase w ~seed ~tiny ~seconds:(seconds /. 2.) ~setups:1 ~traced:true in
      (match (folded, t.tracer) with Some f, Some tr -> write_folded tr f | _ -> ());
      ([ u; t ], per_layer_values ~u ~t)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p.a) 0 phases in
  let failed = sum (fun a -> a.failed) in
  let overwritten = List.assoc_opt "span_overwritten" values in
  let fingerprint = (List.hd phases).fingerprint in
  {
    workload = w.name;
    seed;
    traced;
    seconds;
    correct = failed = 0 && (overwritten = None || overwritten = Some 0.);
    attempted = sum (fun a -> a.attempted);
    failed;
    errors = List.concat_map (fun p -> List.rev p.a.errors) phases;
    values;
    fingerprint;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let table_of r = if r.traced then per_layer else end_to_end

let metrics_json r =
  let fields =
    List.map
      (fun (m : metric) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float (List.assoc m.name r.values))
          (json_string m.unit_))
      (table_of r)
  in
  "{" ^ String.concat ", " fields ^ "}"

(* The commit, read from .git without running git (absent in a
   checkout that is not a repository). *)
let git_head () =
  let read f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ sha; name ] when name = r -> Some sha
                  | _ -> None)
                (String.split_on_char '\n' packed)
              |> Option.value ~default:"unknown"))
  | Some sha -> sha
  | None -> "unknown"

let print_result r ~out =
  Printf.printf "# workload %s seed %d traced %b nproc %d ocaml %s git %s\n" r.workload r.seed r.traced
    (Domain.recommended_domain_count ()) Sys.ocaml_version (git_head ());
  List.iter
    (fun (m : metric) -> Printf.printf "%s %s %s\n" m.name (json_float (List.assoc m.name r.values)) m.unit_)
    (table_of r);
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) r.errors;
  Option.iter
    (fun file ->
      let line =
        Printf.sprintf
          "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"seconds\": %s, \"nproc\": %d, \
           \"ocaml\": %s, \"git\": %s, \"fingerprint\": %s, \"correct\": %b, \"attempted\": %d, \
           \"failed\": %d, \"metrics\": %s}\n"
          (json_string r.workload) r.seed r.traced (json_float r.seconds)
          (Domain.recommended_domain_count ()) (json_string Sys.ocaml_version)
          (json_string (git_head ())) (json_string r.fingerprint) r.correct r.attempted r.failed
          (metrics_json r)
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file (fun oc ->
          output_string oc line))
    out;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" r.correct
    r.attempted r.failed (metrics_json r)

(* ------------------------------------------------------------------ *)
(* compare OLD NEW                                                     *)
(* ------------------------------------------------------------------ *)

type run_line = { w : string; s : int; tr : bool; ok : int * int; ms : (string * float) list }

let read_runs file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         let j = parse_json l in
         let str k = match member k j with Some (Str s) -> s | _ -> failwith (file ^ ": missing " ^ k) in
         let num k = match member k j with Some (Num f) -> f | _ -> failwith (file ^ ": missing " ^ k) in
         let ms =
           match member "metrics" j with
           | Some (Obj kv) ->
               List.filter_map
                 (fun (k, v) -> match member "value" v with Some (Num f) -> Some (k, f) | _ -> None)
                 kv
           | _ -> []
         in
         {
           w = str "workload";
           s = int_of_float (num "seed");
           tr = member "traced" j = Some (Bool true);
           ok = (int_of_float (num "failed"), int_of_float (num "attempted"));
           ms;
         })

(* The verdict of one end-to-end metric on one workload
   (choosing-metrics section 6.5): [unresolved] when either side's
   spread is wider than the bound, unless every new run beats every
   old one. *)
let verdict (m : metric) olds news =
  let q1o, mo, q3o = quartiles olds and q1n, mn, q3n = quartiles news in
  let worse = match m.better with Lower -> (mn -. mo) /. mo | Higher -> (mo -. mn) /. mo in
  let spread = Float.max ((q3o -. q1o) /. mo) ((q3n -. q1n) /. mn) in
  let beats x y = match m.better with Lower -> x < y | Higher -> x > y in
  let all_better = List.for_all (fun n -> List.for_all (fun o -> beats n o) olds) news in
  let v =
    if spread > m.bound && not all_better then "unresolved"
    else if worse > m.bound then "regressed"
    else "ok"
  in
  (v, (q1o, mo, q3o), (q1n, mn, q3n), worse)

let compare_files old_file new_file =
  let olds = read_runs old_file and news = read_runs new_file in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.w) (olds @ news)) in
  let bad = ref false in
  Printf.printf "%-11s %-14s %28s %28s %8s  %s\n" "workload" "metric" "old q1/median/q3"
    "new q1/median/q3" "change" "verdict";
  List.iter
    (fun w ->
      let pick runs = List.filter (fun r -> r.w = w && not r.tr) runs in
      let o = pick olds and n = pick news in
      if o <> [] && n <> [] then begin
        List.iter
          (fun (m : metric) ->
            let vals rs = List.filter_map (fun r -> List.assoc_opt m.name r.ms) rs in
            match (vals o, vals n) with
            | [], _ | _, [] -> ()
            | ov, nv ->
                let v, (a1, a2, a3), (b1, b2, b3), worse = verdict m ov nv in
                if v = "regressed" then bad := true;
                Printf.printf "%-11s %-14s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %+7.1f%%  %s\n" w
                  m.name a1 a2 a3 b1 b2 b3 (100. *. worse) v)
          end_to_end;
        let frac rs =
          let f, att = List.fold_left (fun (f, a) r -> (f + fst r.ok, a + snd r.ok)) (0, 0) rs in
          float_of_int f /. float_of_int (max 1 att)
        in
        let fo = frac (List.filter (fun r -> r.w = w) olds)
        and fn = frac (List.filter (fun r -> r.w = w) news) in
        Printf.printf "%-11s %-14s %28.4g %28.4g %8s  %s\n" w "failed_frac" fo fn ""
          (if fn > fo then "regressed" else "ok");
        if fn > fo then bad := true
      end)
    workloads;
  (* exact counts of traced runs must repeat for the same seed *)
  let mismatches = ref 0 in
  List.iter
    (fun o ->
      List.iter
        (fun n ->
          if n.tr && o.tr && n.w = o.w && n.s = o.s then
            List.iter
              (fun (m : metric) ->
                if m.exact then
                  match (List.assoc_opt m.name o.ms, List.assoc_opt m.name n.ms) with
                  | Some x, Some y when x <> y ->
                      incr mismatches;
                      Printf.printf "exact count differs: %s seed %d %s: %.17g -> %.17g\n" o.w o.s m.name x y
                  | _ -> ())
              per_layer)
        news)
    olds;
  Printf.printf "exact counts: %d differences\n" !mismatches;
  if !bad then exit 1

(* ------------------------------------------------------------------ *)
(* check: the tiny-size self-test behind the bench-check alias         *)
(* ------------------------------------------------------------------ *)

let fail_check fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-check: " ^ s); exit 1) fmt

(* BENCHMARK.json must list exactly these tables and workloads. *)
let check_benchmark_json file =
  let j = parse_json (In_channel.with_open_text file In_channel.input_all) in
  let arr k = match member k j with Some (Arr l) -> l | _ -> fail_check "%s: no %s" file k in
  let str k o = match member k o with Some (Str s) -> s | _ -> fail_check "%s: entry without %s" file k in
  let names = List.map (str "name") (arr "workloads") in
  if names <> List.map (fun (w : W.workload) -> w.name) W.all then fail_check "%s: workloads differ" file;
  let same key table =
    let entries = arr key in
    if List.length entries <> List.length table then fail_check "%s: %s length differs" file key;
    List.iter2
      (fun o (m : metric) ->
        let better = match m.better with Lower -> "lower" | Higher -> "higher" in
        if str "name" o <> m.name || str "unit" o <> m.unit_ || str "better" o <> better then
          fail_check "%s: %s entry %s differs" file key m.name;
        match member "bound" o with
        | Some (Num b) when b <> m.bound -> fail_check "%s: bound of %s differs" file m.name
        | _ -> ())
      entries table
  in
  same "end_to_end" end_to_end;
  same "per_layer" per_layer

let self_check bench_json =
  Option.iter check_benchmark_json bench_json;
  List.iter
    (fun (w : W.workload) ->
      let go ~seed ~traced = run_workload w ~seed ~seconds:0. ~traced ~tiny:true ~folded:None in
      let runs = [ go ~seed:1 ~traced:true; go ~seed:1 ~traced:true; go ~seed:2 ~traced:false ] in
      List.iter
        (fun r ->
          if not r.correct then
            fail_check "%s seed %d: %s" w.name r.seed (String.concat "; " r.errors))
        runs;
      let a = List.nth runs 0 and b = List.nth runs 1 and c = List.nth runs 2 in
      List.iter
        (fun (m : metric) ->
          let x = List.assoc m.name a.values and y = List.assoc m.name b.values in
          if m.exact && x <> y then
            fail_check "%s: exact count %s differs between runs of one seed (%.17g, %.17g)" w.name
              m.name x y)
        per_layer;
      if a.fingerprint <> b.fingerprint then fail_check "%s: same seed, different inputs" w.name;
      if a.fingerprint = c.fingerprint then fail_check "%s: seeds 1 and 2 gave the same inputs" w.name;
      Printf.printf "bench-check %s: ok (%d ops checked)\n%!" w.name (a.attempted + b.attempted + c.attempted))
    W.all

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: run.exe [--workload] W --seed N [--seconds S] [--trace 0|1] [--out FILE] [--folded FILE]\n\
  \       run.exe compare OLD.jsonl NEW.jsonl\n\
  \       run.exe check [BENCHMARK.json]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : W.workload) -> w.name) W.all)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref None and folded = ref None and anon = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.String (fun s -> out := Some s), "FILE append the stamped result line");
      ("--folded", Arg.String (fun s -> folded := Some s), "FILE write folded stacks of the traced run");
    ]
  in
  let die msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun s -> anon := s :: !anon) usage
   with Arg.Bad m | Arg.Help m -> die m);
  match List.rev !anon with
  | [ "compare"; o; n ] -> compare_files o n
  | "check" :: rest -> (
      match rest with
      | [] -> self_check None
      | [ f ] -> self_check (Some f)
      | _ -> die "check takes at most one file")
  | rest -> (
      let name =
        match (rest, !workload) with
        | [], Some w | [ w ], None -> w
        | _ -> die "name exactly one workload"
      in
      match W.find name with
      | None -> die ("unknown workload " ^ name)
      | Some w ->
          if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
          let r =
            run_workload w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~tiny:false ~folded:!folded
          in
          print_result r ~out:!out;
          if not r.correct then exit 1)
