(* Shared machinery of the benchmark: the metric tables, order
   statistics, the per-run accumulator, span folding, and the JSON the
   runs emit and [compare] reads back. *)

module Clock = Fdlsp_sim.Clock
module Span = Fdlsp_sim.Span

let now = Clock.now

(* ------------------------------------------------------------------ *)
(* Metric tables (BENCHMARK.json mirrors these; [check] verifies it)   *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** end-to-end only: allowed relative worsening of the median *)
  exact : bool;  (** per-layer only: a count that must repeat exactly per seed *)
}

let e2e name unit_ better bound = { name; unit_; better; bound; exact = false }
let layer ?(exact = false) name unit_ better = { name; unit_; better; bound = 0.; exact }

(* Every end-to-end metric is defined on every workload: an "op" is
   scheduling one input graph with each of the workload's schedulers
   (paper-udg, udg-8k) or ingesting one batch (the serve workloads). *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.15;
    e2e "op_p50_ms" "ms" Lower 0.15;
    e2e "items_per_s" "1/s" Higher 0.15;
    e2e "live_mb" "MB" Lower 0.10;
  ]

(* Per-layer metrics, from the traced run.  Span self-times are per op
   (per setup for the set-up layers); metrics of a layer a workload
   does not exercise read 0. *)
let per_layer =
  [
    layer "graph.gen_s" "s" Lower;
    layer "color.greedy_s" "s" Lower;
    layer "sync.run_ms" "ms/op" Lower;
    layer "sync.round_ms" "ms/op" Lower;
    layer "async.run_ms" "ms/op" Lower;
    layer "parallel.round_ms" "ms/op" Lower;
    layer "parallel.compute_ms" "ms/op" Lower;
    layer "parallel.exchange_ms" "ms/op" Lower;
    layer "parallel.barrier_frac" "ratio" Lower;
    layer "parallel.cut_frac" "ratio" Lower;
    layer ~exact:true "sim.rounds" "count/op" Lower;
    layer ~exact:true "sim.messages" "count/op" Lower;
    layer ~exact:true "sim.volume" "count/op" Lower;
    layer "distmis.self_ms" "ms/op" Lower;
    layer "distmis.mis_ms" "ms/op" Lower;
    layer "distmis.secondary-mis_ms" "ms/op" Lower;
    layer "distmis.color_ms" "ms/op" Lower;
    layer "dfs.self_ms" "ms/op" Lower;
    layer "dmgc.vizing_ms" "ms/op" Lower;
    layer "dmgc.orient_ms" "ms/op" Lower;
    layer ~exact:true "distmis.outer_iters" "count/op" Lower;
    layer ~exact:true "distmis.inner_iters" "count/op" Lower;
    layer ~exact:true "dfs.token_moves" "count/op" Lower;
    layer ~exact:true "dmgc.injected_edges" "count/op" Lower;
    layer ~exact:true "slots_mean" "slots" Lower;
    layer ~exact:true "slots_vs_greedy" "ratio" Lower;
    layer "distmis_ms" "ms/call" Lower;
    layer "distmis_par_ms" "ms/call" Lower;
    layer "dfs_ms" "ms/call" Lower;
    layer "dmgc_ms" "ms/call" Lower;
    layer "service.coalesce_ms" "ms/op" Lower;
    layer "service.repair_self_ms" "ms/op" Lower;
    layer "service.rebuild_ms" "ms/op" Lower;
    layer "service.recolor_ms" "ms/op" Lower;
    layer "service.fixup_ms" "ms/op" Lower;
    layer "service.refine_ms" "ms/op" Lower;
    layer ~exact:true "service.events" "count" Higher;
    layer ~exact:true "service.ops_per_event" "ratio" Lower;
    layer ~exact:true "service.touched_frac" "ratio" Lower;
    layer ~exact:true "service.recolored_per_event" "ratio" Lower;
    layer "query_ns" "ns" Lower;
    layer "wal.append_ms" "ms/op" Lower;
    layer "wal.fsync_ms" "ms/op" Lower;
    layer "wal.recover_ms" "ms/call" Lower;
    layer ~exact:true "wal.bytes_per_event" "B/event" Lower;
    layer "recovery_s" "s" Lower;
    layer "bench.check_ms" "ms/op" Lower;
    layer "op_p90_ms" "ms" Lower;
    layer "op_p99_ms" "ms" Lower;
    layer "heap_peak_mb" "MB" Lower;
    layer "trace_overhead_frac" "ratio" Lower;
    layer ~exact:true "span_overwritten" "count" Lower;
  ]

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Cut point [i] of [n] equal-probability groups, by the "exclusive"
   method of Python's statistics.quantiles — the estimator the
   acceptance rule uses, so [compare] reads spreads the same way. *)
let quantile ~n ~i xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n

let median xs = quantile ~n:2 ~i:1 xs

(* (q1, median, q3) *)
let quartiles xs = (quantile ~n:4 ~i:1 xs, median xs, quantile ~n:4 ~i:3 xs)

(* ------------------------------------------------------------------ *)
(* Per-run accumulator                                                 *)
(* ------------------------------------------------------------------ *)

(* One phase of a run.  [sums] accumulates named quantities across ops;
   [exact] only over the first [prefix] ops, which every run completes
   whatever the machine speed, so the counts it yields repeat exactly
   for a seed. *)
type acc = {
  prefix : int;
  mutable op : int;  (** index of the op in progress *)
  mutable lat : float list;  (** timed seconds per op, newest first *)
  mutable items : int;
  mutable attempted : int;
  mutable failed : int;
  mutable bad : bool;  (** a check of the current operation failed *)
  mutable errors : string list;
  sums : (string, float) Hashtbl.t;  (** over every op *)
  exact : (string, float) Hashtbl.t;  (** over the first [prefix] ops *)
  final : (string, float) Hashtbl.t;  (** metric values a workload derives itself *)
}

let acc ~prefix =
  {
    prefix;
    op = 0;
    lat = [];
    items = 0;
    attempted = 0;
    failed = 0;
    bad = false;
    errors = [];
    sums = Hashtbl.create 16;
    exact = Hashtbl.create 16;
    final = Hashtbl.create 16;
  }

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.
let add a k v = Hashtbl.replace a.sums k (get a.sums k +. v)
let add_exact a k v = if a.op < a.prefix then Hashtbl.replace a.exact k (get a.exact k +. v)
let set a k v = Hashtbl.replace a.final k v

(* Mean per op of an [exact] quantity. *)
let per_prefix_op a k = get a.exact k /. float_of_int a.prefix

let note a msg = if List.length a.errors < 5 then a.errors <- msg :: a.errors

let check a what ok =
  if not ok then begin
    a.bad <- true;
    note a what
  end

(* Run [f] as one attempted operation: it failed if it raised or any
   [check] inside it failed.  Returns [false] only when it raised. *)
let attempt a what f =
  a.attempted <- a.attempted + 1;
  a.bad <- false;
  let raised =
    match f () with
    | () -> false
    | exception e ->
        check a (Printf.sprintf "%s: %s" what (Printexc.to_string e)) false;
        true
  in
  if a.bad then a.failed <- a.failed + 1;
  not raised

(* Result and wall seconds of one call of [f]. *)
let stopwatch f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Close the current op: [dt] is its timed seconds, [items] the work
   it completed (arcs scheduled, events ingested). *)
let record a ~items dt =
  a.lat <- dt :: a.lat;
  a.items <- a.items + items

(* ------------------------------------------------------------------ *)
(* Span folding                                                        *)
(* ------------------------------------------------------------------ *)

(* A recorder ring plus the self-times folded out of the rings it has
   already filled.  Workloads whose span sink is fixed at creation (the
   service) never rotate; they stop their traced phase before the ring
   fills instead. *)
type tracer = {
  cap : int;
  mutable sink : Span.sink;
  paths : (string, float) Hashtbl.t;  (** folded stack -> self microseconds *)
  mutable overwritten : int;
}

let tracer () =
  let cap = 1 lsl 20 in
  { cap; sink = Span.recorder ~capacity:cap (); paths = Hashtbl.create 64; overwritten = 0 }

(* Fold the ring's self times (via [Span.to_folded]) into [paths] and
   start a fresh ring.  Only call between ops, with no span open. *)
let drain tr =
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> ()
      | Some sp ->
          let path = String.sub line 0 sp in
          let us = float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)) in
          Hashtbl.replace tr.paths path (get tr.paths path +. us))
    (String.split_on_char '\n' (Span.to_folded (Span.entries tr.sink)));
  tr.overwritten <- tr.overwritten + Span.overwritten tr.sink;
  tr.sink <- Span.recorder ~capacity:tr.cap ()

(* Self seconds per innermost span name: a layer's time wherever it was
   called from. *)
let self_by_leaf tr =
  let self = Hashtbl.create 32 in
  Hashtbl.iter
    (fun path us ->
      let leaf =
        match String.rindex_opt path ';' with
        | None -> path
        | Some k -> String.sub path (k + 1) (String.length path - k - 1)
      in
      Hashtbl.replace self leaf (get self leaf +. (us *. 1e-6)))
    tr.paths;
  self

let maybe_drain tr = if Span.seen tr.sink > tr.cap / 2 then drain tr

(* A fixed sink stops its phase here, leaving room for the end-of-run
   recoveries. *)
let nearly_full tr = Span.seen tr.sink > tr.cap * 3 / 4

let write_folded tr file =
  let lines = Hashtbl.fold (fun p us acc -> Printf.sprintf "%s %.0f" p us :: acc) tr.paths [] in
  Out_channel.with_open_text file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort compare lines))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that reads back to the same float: every digit as
   measured. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* A small recursive-descent reader, enough for the result lines this
   program writes. *)
let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = failwith (Printf.sprintf "json: %s at byte %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c = if peek () = c then incr pos else err (Printf.sprintf "expected %c" c) in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then (
      pos := !pos + String.length word;
      v)
    else err "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 1) 4) land 0xff));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' -> err "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> err "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> err "expected , or ]"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        if !pos = start then err "unexpected character";
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then err "trailing bytes";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
