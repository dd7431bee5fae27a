(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8) plus the repository's own ablations.  Each
   experiment records into its own metrics registry; the snapshots are
   folded into one schema-versioned JSON report of exact, seeded values
   (see Report.write).  Wall-clock performance is perfbench/'s job.

     dune exec bench/main.exe                 # everything, default seeds
     dune exec bench/main.exe -- fig8 fig13   # selected experiments
     dune exec bench/main.exe -- --seeds 75 all   # the paper's seed count
     dune exec bench/main.exe -- --smoke --out BENCH_fdlsp.json  # the committed record *)

open Cmdliner

(* An experiment answers to every figure it reproduces: Figures 14 and 15
   plot the rounds of Figures 12's and 11's runs, so each G(n,m) sweep
   runs once and records both. *)
let experiments =
  [
    ([ "table1" ], Experiments.table1);
    ([ "fig8" ], Experiments.fig8);
    ([ "fig9" ], Experiments.fig9);
    ([ "fig10" ], Experiments.fig10);
    ([ "fig11"; "fig15" ], Experiments.fig11);
    ([ "fig12"; "fig14" ], Experiments.fig12);
    ([ "fig13" ], Experiments.fig13);
    ([ "faults" ], Experiments.faults);
    ([ "phases" ], Experiments.phases);
    ([ "stabilize" ], Experiments.stabilize);
    ([ "frames" ], Experiments.frames);
    ([ "ablation" ], Experiments.ablation);
  ]

let all_names = List.concat_map fst experiments

let names_arg =
  let doc =
    Printf.sprintf "Experiments to run: %s, or 'all' (default)."
      (String.concat " | " all_names)
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)

let seeds_arg =
  let doc = "Random graphs per data point (paper: 75)." in
  Arg.(value & opt int Experiments.default.Experiments.seeds & info [ "seeds" ] ~doc)

let full_arg =
  let doc = "Use the paper's 75 seeds per data point (slow)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let smoke_arg =
  let doc =
    "Record mode: cap seeds at 2 and shrink every sweep to a representative corner.  \
     The committed BENCH_fdlsp.json is the smoke report of every experiment."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let out_arg =
  let doc = "Write the canonical schema-versioned bench report to $(docv)." in
  Arg.(value & opt string "BENCH_fdlsp.json" & info [ "out" ] ~docv:"FILE" ~doc)

let run names seeds full smoke out =
  let seeds = if full then 75 else if smoke then min seeds 2 else seeds in
  match List.filter (fun n -> n <> "all" && not (List.mem n all_names)) names with
  | u :: _ ->
      Printf.eprintf "unknown experiment %S\n" u;
      exit 1
  | [] ->
      Printf.printf "fdlsp bench: %d seed(s) per data point%s\n" seeds
        (if smoke then " (smoke)" else "");
      List.iter
        (fun (aliases, experiment) ->
          if List.exists (fun n -> n = "all" || List.mem n aliases) names then begin
            let reg = Fdlsp_sim.Metrics.create () in
            experiment { Experiments.seeds; base_seed = 42; smoke; metrics = reg };
            Report.record ~name:(String.concat "+" aliases) reg
          end)
        experiments;
      Report.write ~out ~seeds ~smoke

let () =
  let info = Cmd.info "bench" ~doc:"Reproduce the paper's tables and figures" in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const run $ names_arg $ seeds_arg $ full_arg $ smoke_arg $ out_arg)))
