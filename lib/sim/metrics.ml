(* Process-wide metrics registry: labeled counters, gauges, log-bucketed
   histograms and timeline series, recorded through cheap [sink] handles
   threaded as [?metrics] through the engines and protocols.  With the
   null sink every recording call is a no-op, mirroring [Trace.null]. *)

type labels = (string * string) list

(* Labels are kept sorted by key with the first binding winning, so a
   label set is a canonical association list and can serve as (part of)
   a hash key. *)
let normalize (ls : labels) : labels =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) ls in
  (* first binding wins: stable sort keeps insertion order within a key,
     so drop later duplicates *)
  let rec keep_first = function
    | (k1, v1) :: ((k2, _) :: _ as rest) when k1 = k2 ->
        keep_first ((k1, v1) :: List.tl rest)
    | b :: rest -> b :: keep_first rest
    | [] -> []
  in
  keep_first sorted

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                            *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  (* Powers-of-two ladder: upper bounds 2^-20 .. 2^30, plus +inf.  Wide
     enough for sub-microsecond timings and million-message counts. *)
  let min_exp = -20
  let max_exp = 30
  let nbuckets = max_exp - min_exp + 2
  let lowest = Float.pow 2. (float_of_int min_exp)
  let highest = Float.pow 2. (float_of_int max_exp)

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    {
      counts = Array.make nbuckets 0;
      total = 0;
      sum = 0.;
      min_v = Float.infinity;
      max_v = Float.neg_infinity;
    }

  let bound i =
    if i >= nbuckets - 1 then Float.infinity
    else Float.pow 2. (float_of_int (min_exp + i))

  (* index of the smallest bucket whose upper bound is >= v *)
  let bucket_of v =
    if Float.is_nan v || v <= lowest then 0
    else if v > highest then nbuckets - 1
    else begin
      let m, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1): the smallest power-of-two bound
         >= v is 2^(e-1) exactly when v is itself that power *)
      let exp = if m = 0.5 then e - 1 else e in
      max 0 (min (nbuckets - 1) (exp - min_exp))
    end

  let observe h v =
    let i = bucket_of v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v

  let count h = h.total
  let sum h = h.sum
  let min_value h = h.min_v
  let max_value h = h.max_v

  let merge a b =
    let m = create () in
    for i = 0 to nbuckets - 1 do
      m.counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    m.total <- a.total + b.total;
    m.sum <- a.sum +. b.sum;
    m.min_v <- Float.min a.min_v b.min_v;
    m.max_v <- Float.max a.max_v b.max_v;
    m

  (* Upper bound of the bucket holding the q-quantile observation,
     clamped to the observed [min, max] range, so the estimate is always
     within the data and monotone in q.  NaN on an empty histogram. *)
  let quantile h q =
    if h.total = 0 then Float.nan
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let target = max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
      let rec go i cum =
        let cum = cum + h.counts.(i) in
        if cum >= target || i = nbuckets - 1 then i else go (i + 1) cum
      in
      let i = go 0 0 in
      Float.max h.min_v (Float.min h.max_v (bound i))
    end

  (* per-bucket (upper bound, count), non-cumulative *)
  let buckets h = Array.init nbuckets (fun i -> (bound i, h.counts.(i)))

  let cumulative h =
    let cum = ref 0 in
    Array.init nbuckets (fun i ->
        cum := !cum + h.counts.(i);
        (bound i, !cum))
end

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

type series = {
  mutable pts : (float * float) list;  (* reversed *)
  mutable npts : int;
  mutable pushed : int;  (* total pushes, including capped-away ones *)
}

let series_capacity = 16_384

type value =
  | Counter of int ref
  | Gauge of float ref
  | Histo of Hist.t
  | Series of series

type kind = Kcounter | Kgauge | Khisto | Kseries

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khisto -> "histogram"
  | Kseries -> "series"

type t = {
  tbl : (string * labels, value) Hashtbl.t;
  kinds : (string, kind) Hashtbl.t;
      (* one kind per metric name across all label sets, so the
         Prometheus exposition's one-TYPE-per-name invariant holds *)
}

let create () = { tbl = Hashtbl.create 64; kinds = Hashtbl.create 64 }

let find_or_add reg name labels kind make =
  (match Hashtbl.find_opt reg.kinds name with
  | Some k when k <> kind ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name
           (kind_name k) (kind_name kind))
  | Some _ -> ()
  | None -> Hashtbl.replace reg.kinds name kind);
  let key = (name, labels) in
  match Hashtbl.find_opt reg.tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace reg.tbl key v;
      v

let counter_cell reg name labels =
  match find_or_add reg name labels Kcounter (fun () -> Counter (ref 0)) with
  | Counter c -> c
  | _ -> assert false

let gauge_cell reg name labels =
  match find_or_add reg name labels Kgauge (fun () -> Gauge (ref 0.)) with
  | Gauge g -> g
  | _ -> assert false

let hist_cell reg name labels =
  match find_or_add reg name labels Khisto (fun () -> Histo (Hist.create ())) with
  | Histo h -> h
  | _ -> assert false

let series_cell reg name labels =
  match
    find_or_add reg name labels Kseries (fun () ->
        Series { pts = []; npts = 0; pushed = 0 })
  with
  | Series s -> s
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

type sink = Null | Active of { reg : t; labels : labels; scale : int }

let null = Null
let sink ?(labels = []) reg = Active { reg; labels = normalize labels; scale = 1 }
let enabled = function Null -> false | Active _ -> true
let registry = function Null -> None | Active a -> Some a.reg
let sink_labels = function Null -> [] | Active a -> a.labels

(* Adds the label only when the key is absent, so an outer layer's
   label survives an inner layer's default. *)
let with_label m k v =
  match m with
  | Null -> Null
  | Active a ->
      if List.mem_assoc k a.labels then m
      else Active { a with labels = normalize ((k, v) :: a.labels) }

(* Multiplies subsequent counter increments; composes by product.  This
   mirrors [Stats.scale_rounds]: a sub-protocol simulated once but
   charged [k] times records [k]-scaled counters. *)
let with_scale k m =
  match m with Null -> Null | Active a -> Active { a with scale = k * a.scale }

let inc ?(by = 1) m name =
  match m with
  | Null -> ()
  | Active a ->
      let c = counter_cell a.reg name a.labels in
      c := !c + (by * a.scale)

let gauge m name v =
  match m with
  | Null -> ()
  | Active a -> gauge_cell a.reg name a.labels := v

let observe m name v =
  match m with
  | Null -> ()
  | Active a -> Hist.observe (hist_cell a.reg name a.labels) v

let sample m name ~x v =
  match m with
  | Null -> ()
  | Active a ->
      let s = series_cell a.reg name a.labels in
      s.pushed <- s.pushed + 1;
      if s.npts < series_capacity then begin
        s.pts <- (x, v) :: s.pts;
        s.npts <- s.npts + 1
      end

(* ------------------------------------------------------------------ *)
(* Metric names                                                       *)
(* ------------------------------------------------------------------ *)

module Name = struct
  let rounds = "fdlsp_rounds_total"
  let messages = "fdlsp_messages_total"
  let volume = "fdlsp_volume_total"
  let dropped = "fdlsp_dropped_total"
  let duplicated = "fdlsp_duplicated_total"
  let retransmits = "fdlsp_retransmits_total"
  let gave_up = "fdlsp_gave_up_total"
  let corruptions = "fdlsp_corruptions_total"
  let round_messages = "fdlsp_round_messages"
  let inbox_depth = "fdlsp_inbox_depth"
  let queue_depth = "fdlsp_event_queue_depth"
  let pending_frames = "fdlsp_pending_frames"
  let mis_joins = "fdlsp_mis_joins_total"
  let colors = "fdlsp_colors_total"
  let token_moves = "fdlsp_token_moves_total"
  let detects = "fdlsp_detects_total"
  let recolorings = "fdlsp_recolorings_total"
  let recolor_activity = "fdlsp_recolor_activity"
  let outer_iters = "fdlsp_outer_iters_total"
  let inner_iters = "fdlsp_inner_iters_total"
  let slots = "fdlsp_slots"
  let frame_sleep_fraction = "fdlsp_frame_sleep_fraction"
  let frame_join_latency = "fdlsp_frame_join_latency"
  let frame_resyncs = "fdlsp_frame_resyncs_total"
  let frame_desyncs = "fdlsp_frame_desyncs_total"
  let frame_collisions = "fdlsp_frame_collisions_total"
  let service_events = "fdlsp_service_events_total"
  let service_ops = "fdlsp_service_ops_total"
  let service_batches = "fdlsp_service_batches_total"
  let service_recolored = "fdlsp_service_recolored_total"
  let service_batch_size = "fdlsp_service_batch_size"
  let service_repair = "fdlsp_service_repair"
  let service_touched_frac = "fdlsp_service_touched_frac"
  let wal_appends = "fdlsp_wal_appends_total"
  let wal_bytes = "fdlsp_wal_bytes_total"
  let wal_snapshots = "fdlsp_wal_snapshots_total"
  let wal_replayed = "fdlsp_wal_replayed_total"
  let wal_skipped = "fdlsp_wal_skipped_total"
  let admission_admitted = "fdlsp_admission_admitted_total"
  let admission_rejected = "fdlsp_admission_rejected_total"
  let admission_deferred = "fdlsp_admission_deferred_total"
  let admission_shed = "fdlsp_admission_shed_total"
  let admission_queue_depth = "fdlsp_admission_queue_depth"
  let admission_degraded = "fdlsp_admission_degraded"
  let parallel_shards = "fdlsp_parallel_shards"
  let parallel_barrier_frac = "fdlsp_parallel_barrier_frac"
  let parallel_cut_frac = "fdlsp_parallel_cut_frac"
end

(* Record a whole [Stats.t] through the sink: the engines call this once
   at end of run with exactly the record they return, which is what
   makes [to_stats] an exact derived view of the registry. *)
let add_stats m (s : Stats.t) =
  match m with
  | Null -> ()
  | Active _ ->
      inc ~by:s.Stats.rounds m Name.rounds;
      inc ~by:s.Stats.messages m Name.messages;
      inc ~by:s.Stats.volume m Name.volume;
      inc ~by:s.Stats.dropped m Name.dropped;
      inc ~by:s.Stats.duplicated m Name.duplicated;
      inc ~by:s.Stats.retransmits m Name.retransmits;
      inc ~by:s.Stats.gave_up m Name.gave_up;
      inc ~by:s.Stats.corruptions m Name.corruptions

(* ------------------------------------------------------------------ *)
(* Profiling hook                                                     *)
(* ------------------------------------------------------------------ *)

let timed m name f =
  match m with
  | Null -> f ()
  | Active _ ->
      (* monotone clock: a wall-clock step must not turn the duration
         negative (Span clamps; this path previously did not) *)
      let t0 = Clock.now () in
      let g0 = Gc.quick_stat () in
      (* [quick_stat]'s minor_words only advances at minor collections;
         [Gc.minor_words ()] reads the live allocation pointer, so short
         sections still report their allocations *)
      let m0 = Gc.minor_words () in
      let finish () =
        let dt = Clock.now () -. t0 in
        let g1 = Gc.quick_stat () in
        let m1 = Gc.minor_words () in
        let major st = st.Gc.major_words -. st.Gc.promoted_words in
        observe m (name ^ "_seconds") dt;
        (* clamp the two heaps separately: runtimes disagree on whether
           [major_words] includes promoted words, and a negative major
           correction must not swallow the (always valid) minor count *)
        inc
          ~by:
            (int_of_float
               (Float.max 0. (m1 -. m0)
               +. Float.max 0. (major g1 -. major g0)))
          m
          (name ^ "_alloc_words_total");
        inc ~by:(g1.Gc.major_collections - g0.Gc.major_collections)
          m
          (name ^ "_major_collections_total")
      in
      Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* Reading the registry                                               *)
(* ------------------------------------------------------------------ *)

(* does [labels] contain every binding of [filter]? *)
let superset ~filter labels =
  List.for_all (fun (k, v) -> List.assoc_opt k labels = Some v) filter

let counter_value ?(labels = []) reg name =
  let filter = normalize labels in
  Hashtbl.fold
    (fun (n, ls) v acc ->
      if n = name && superset ~filter ls then
        match v with Counter c -> acc + !c | _ -> acc
      else acc)
    reg.tbl 0

let gauge_value ?(labels = []) reg name =
  let filter = normalize labels in
  let best =
    Hashtbl.fold
      (fun (n, ls) v acc ->
        if n = name && superset ~filter ls then
          match v with
          | Gauge g -> (
              (* smallest label set wins ties deterministically *)
              match acc with
              | Some (ls0, _) when compare ls0 ls <= 0 -> acc
              | _ -> Some (ls, !g))
          | _ -> acc
        else acc)
      reg.tbl None
  in
  Option.map snd best

let histogram ?(labels = []) reg name =
  let filter = normalize labels in
  (* collect, then merge in sorted label-set order: [Hist.merge] adds
     float sums, so folding in the table's hash order would make the
     merged [sum] depend on internal layout (a determinism hazard once
     shard registries multiply the label sets) *)
  let matching =
    Hashtbl.fold
      (fun (n, ls) v acc ->
        if n = name && superset ~filter ls then
          match v with Histo h -> (ls, h) :: acc | _ -> acc
        else acc)
      reg.tbl []
  in
  match List.sort (fun (l1, _) (l2, _) -> compare l1 l2) matching with
  | [] -> None
  | (_, h) :: rest -> Some (List.fold_left (fun a (_, h) -> Hist.merge a h) h rest)

let series_points ?(labels = []) reg name =
  let filter = normalize labels in
  Hashtbl.fold
    (fun (n, ls) v acc ->
      if n = name && superset ~filter ls then
        match v with Series s -> List.rev_append s.pts acc | _ -> acc
      else acc)
    reg.tbl []
  |> List.sort compare

let to_stats ?(labels = []) reg =
  let c name = counter_value ~labels reg name in
  Stats.make ~rounds:(c Name.rounds) ~messages:(c Name.messages)
    ~volume:(c Name.volume) ~dropped:(c Name.dropped) ~duplicated:(c Name.duplicated)
    ~retransmits:(c Name.retransmits) ~gave_up:(c Name.gave_up)
    ~corruptions:(c Name.corruptions) ()

let merge_into ~dst src =
  Hashtbl.iter
    (fun (name, labels) v ->
      match v with
      | Counter c ->
          let d = counter_cell dst name labels in
          d := !d + !c
      | Gauge g -> gauge_cell dst name labels := !g
      | Histo h ->
          let cell = hist_cell dst name labels in
          let m = Hist.merge cell h in
          Array.blit m.Hist.counts 0 cell.Hist.counts 0 Hist.nbuckets;
          cell.Hist.total <- m.Hist.total;
          cell.Hist.sum <- m.Hist.sum;
          cell.Hist.min_v <- m.Hist.min_v;
          cell.Hist.max_v <- m.Hist.max_v
      | Series s ->
          let d = series_cell dst name labels in
          List.iter
            (fun (x, v) ->
              d.pushed <- d.pushed + 1;
              if d.npts < series_capacity then begin
                d.pts <- (x, v) :: d.pts;
                d.npts <- d.npts + 1
              end)
            (List.rev s.pts))
    src.tbl

(* A fresh private registry wearing the same labels and scale as the
   given sink: the [Parallel] engine hands one to each shard (the shared
   registry is not thread-safe) and folds them back with [merge_into] at
   the terminal barrier. *)
let fork = function
  | Null -> None
  | Active a ->
      let reg = create () in
      Some (reg, Active { a with reg })

(* ------------------------------------------------------------------ *)
(* Sliding windows                                                    *)
(* ------------------------------------------------------------------ *)

(* A window is a baseline snapshot of per-name aggregates (counters
   summed across label sets, histograms merged); deltas against the
   live registry give "since last sample" rates and quantiles for the
   streaming health monitor.  Because every delta is
   [current - baseline] and [advance] re-baselines to exactly the
   values just reported, the sum of all window deltas over a run equals
   the final registry counters — the reconciliation the health tests
   pin. *)
module Window = struct
  type snap = {
    s_counters : (string, int) Hashtbl.t;
    s_hists : (string, Hist.t) Hashtbl.t;
  }

  type w = { w_reg : t; mutable base : snap }

  let copy_hist (h : Hist.t) : Hist.t =
    { h with Hist.counts = Array.copy h.Hist.counts }

  let take reg =
    let s_counters = Hashtbl.create 32 and s_hists = Hashtbl.create 32 in
    Hashtbl.iter
      (fun (name, _) v ->
        match v with
        | Counter c ->
            Hashtbl.replace s_counters name
              (!c + Option.value (Hashtbl.find_opt s_counters name) ~default:0)
        | Histo h ->
            Hashtbl.replace s_hists name
              (match Hashtbl.find_opt s_hists name with
              | None -> copy_hist h
              | Some a -> Hist.merge a h)
        | _ -> ())
      reg.tbl;
    { s_counters; s_hists }

  let start reg = { w_reg = reg; base = take reg }
  let advance w = w.base <- take w.w_reg

  let counter_delta w name =
    counter_value w.w_reg name
    - Option.value (Hashtbl.find_opt w.base.s_counters name) ~default:0

  (* Bucket-wise subtraction.  min/max are approximated from the
     nonzero delta buckets (bucket edges, not exact observations) so
     [Hist.quantile] stays clamped inside the delta's actual range. *)
  let sub_hist (cur : Hist.t) (base : Hist.t) : Hist.t =
    let d = Hist.create () in
    let first = ref (-1) and last = ref (-1) in
    for i = 0 to Hist.nbuckets - 1 do
      let c = max 0 (cur.Hist.counts.(i) - base.Hist.counts.(i)) in
      d.Hist.counts.(i) <- c;
      if c > 0 then begin
        if !first < 0 then first := i;
        last := i
      end
    done;
    d.Hist.total <- max 0 (cur.Hist.total - base.Hist.total);
    d.Hist.sum <- cur.Hist.sum -. base.Hist.sum;
    if !first >= 0 then begin
      d.Hist.min_v <- (if !first = 0 then 0. else Hist.bound (!first - 1));
      d.Hist.max_v <- Hist.bound !last
    end;
    d

  let delta_hist w name =
    match histogram w.w_reg name with
    | None -> None
    | Some cur -> (
        match Hashtbl.find_opt w.base.s_hists name with
        | None -> Some (copy_hist cur)
        | Some base -> Some (sub_hist cur base))

  let observations w name =
    match delta_hist w name with None -> 0 | Some d -> Hist.count d

  let sum_delta w name =
    match delta_hist w name with None -> 0. | Some d -> Hist.sum d

  let quantile w name q =
    match delta_hist w name with
    | None -> Float.nan
    | Some d -> Hist.quantile d q
end

(* ------------------------------------------------------------------ *)
(* Exposition                                                         *)
(* ------------------------------------------------------------------ *)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let sorted_entries reg =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) reg.tbl []
  |> List.sort (fun ((n1, l1), _) ((n2, l2), _) -> compare (n1, l1) (n2, l2))

let kv_labels = function
  | [] -> ""
  | ls -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

(* Stable kv exposition: one [name{k=v,...} value] line per scalar,
   sorted; histograms and series expand into derived scalars. *)
let to_kv reg =
  let buf = Buffer.create 1024 in
  let line name labels v =
    Buffer.add_string buf (name ^ kv_labels labels ^ " " ^ v ^ "\n")
  in
  List.iter
    (fun ((name, labels), v) ->
      match v with
      | Counter c -> line name labels (string_of_int !c)
      | Gauge g -> line name labels (fmt_float !g)
      | Histo h ->
          line (name ^ "_count") labels (string_of_int (Hist.count h));
          line (name ^ "_sum") labels (fmt_float (Hist.sum h));
          if Hist.count h > 0 then begin
            line (name ^ "_min") labels (fmt_float (Hist.min_value h));
            line (name ^ "_max") labels (fmt_float (Hist.max_value h));
            line (name ^ "_p50") labels (fmt_float (Hist.quantile h 0.5));
            line (name ^ "_p90") labels (fmt_float (Hist.quantile h 0.9));
            line (name ^ "_p99") labels (fmt_float (Hist.quantile h 0.99))
          end
      | Series s ->
          line (name ^ "_points") labels (string_of_int s.npts);
          (match s.pts with
          | (x, v) :: _ ->
              line (name ^ "_last_x") labels (fmt_float x);
              line (name ^ "_last") labels (fmt_float v)
          | [] -> ()))
    (sorted_entries reg);
  Buffer.contents buf

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v))
         labels)
  ^ "}"

let to_json reg =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"metrics":[|};
  List.iteri
    (fun i ((name, labels), v) ->
      if i > 0 then Buffer.add_char buf ',';
      let head kind =
        Printf.sprintf {|{"name":"%s","kind":"%s","labels":%s|} (Json.escape name) kind
          (json_labels labels)
      in
      (match v with
      | Counter c ->
          Buffer.add_string buf (head "counter");
          Buffer.add_string buf (Printf.sprintf {|,"value":%d}|} !c)
      | Gauge g ->
          Buffer.add_string buf (head "gauge");
          Buffer.add_string buf (Printf.sprintf {|,"value":%s}|} (fmt_float !g))
      | Histo h ->
          Buffer.add_string buf (head "histogram");
          Buffer.add_string buf
            (Printf.sprintf {|,"count":%d,"sum":%s|} (Hist.count h)
               (fmt_float (Hist.sum h)));
          if Hist.count h > 0 then
            Buffer.add_string buf
              (Printf.sprintf {|,"min":%s,"max":%s,"p50":%s,"p90":%s,"p99":%s|}
                 (fmt_float (Hist.min_value h))
                 (fmt_float (Hist.max_value h))
                 (fmt_float (Hist.quantile h 0.5))
                 (fmt_float (Hist.quantile h 0.9))
                 (fmt_float (Hist.quantile h 0.99)));
          let bkts =
            Hist.buckets h |> Array.to_list
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (le, n) ->
                   let le = if le = Float.infinity then {|"+Inf"|} else fmt_float le in
                   Printf.sprintf {|{"le":%s,"n":%d}|} le n)
          in
          Buffer.add_string buf
            (Printf.sprintf {|,"buckets":[%s]}|} (String.concat "," bkts))
      | Series s ->
          Buffer.add_string buf (head "series");
          let pts =
            List.rev_map
              (fun (x, v) -> Printf.sprintf "[%s,%s]" (fmt_float x) (fmt_float v))
              s.pts
          in
          Buffer.add_string buf
            (Printf.sprintf {|,"pushed":%d,"points":[%s]}|} s.pushed
               (String.concat "," pts))))
    (sorted_entries reg);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let prom_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf {|%s="%s"|} k (prom_escape v)) ls)
      ^ "}"

(* Prometheus text exposition.  Series have no Prometheus equivalent and
   are omitted (they live in the kv and JSON formats); everything else
   maps one-to-one, histograms with the conventional cumulative
   [_bucket]/[_sum]/[_count] triple. *)
let to_prometheus reg =
  let buf = Buffer.create 4096 in
  let last_typed = ref "" in
  let type_line name kind =
    if !last_typed <> name then begin
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
      last_typed := name
    end
  in
  List.iter
    (fun ((name, labels), v) ->
      match v with
      | Counter c ->
          type_line name "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (prom_labels labels) !c)
      | Gauge g ->
          type_line name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (fmt_float !g))
      | Histo h ->
          type_line name "histogram";
          (* emit only the buckets where the cumulative count steps, plus
             +Inf: any cumulative sub-ladder is a valid exposition, and 52
             lines per histogram is noise *)
          let prev = ref (-1) in
          Array.iter
            (fun (le, cum) ->
              if cum <> !prev || le = Float.infinity then begin
                prev := cum;
                let le_s = if le = Float.infinity then "+Inf" else fmt_float le in
                let labels = labels @ [ ("le", le_s) ] in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name (prom_labels labels) cum)
              end)
            (Hist.cumulative h);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
               (fmt_float (Hist.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels) (Hist.count h))
      | Series _ -> ())
    (sorted_entries reg);
  Buffer.contents buf
