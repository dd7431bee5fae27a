(* Tiny table-rendering and statistics helpers for the bench harness. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mean_int xs = mean (List.map float_of_int xs)

(* Render rows with columns padded to their widest cell. *)
let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let render row =
    String.concat "  "
      (List.mapi (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell) row)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length (render header)) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let f1 x = Printf.sprintf "%.1f" x
let section title = Printf.printf "\n== %s ==\n\n" title

(* ------------------------------------------------------------------ *)
(* Canonical bench report                                              *)
(* ------------------------------------------------------------------ *)

(* Every experiment records into its own metrics registry; the harness
   folds the snapshots into one schema-versioned JSON document whose
   experiment metrics are the registry's sorted [Metrics.to_kv] lines,
   one JSON string per output line.  Every value is exact per seed, so
   the committed smoke report is a line-diffable record of the paper's
   figures: bench/dune's @bench-record alias regenerates it and diffs it
   against the committed copy.  Human-readable tables stay on stdout. *)

let schema = "fdlsp-bench"
let schema_version = 2

type entry = { name : string; metrics : Fdlsp_sim.Metrics.t }

let entries : entry list ref = ref []

let record ~name metrics = entries := { name; metrics } :: !entries

(* to_kv lines are ASCII metric names, labels and numbers; only the two
   JSON string metacharacters can occur in label values. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let write ~out ~seeds ~smoke =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"%s\",\"version\":%d,\"seeds\":%d,\"smoke\":%b,\"experiments\":[\n"
       schema schema_version seeds smoke);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "{\"name\":%s,\"metrics\":[\n" (json_string e.name));
      let lines =
        String.split_on_char '\n' (Fdlsp_sim.Metrics.to_kv e.metrics)
        |> List.filter (fun l -> l <> "")
      in
      Buffer.add_string buf (String.concat ",\n" (List.map json_string lines));
      Buffer.add_string buf "\n]}")
    (List.rev !entries);
  Buffer.add_string buf "\n]}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "\nbench report: %d experiment(s) -> %s\n" (List.length !entries) out
