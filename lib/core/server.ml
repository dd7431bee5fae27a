(* The serve loop: ingest -> admission -> WAL -> apply -> health/SLO,
   with the flight recorder dumping at every point a post-mortem would
   want to start from. *)

module Metrics = Fdlsp_sim.Metrics
module Span = Fdlsp_sim.Span
module Flight = Fdlsp_sim.Flight
open Fdlsp_color

let src = Logs.Src.create "fdlsp.server" ~doc:"serve loop"

module Log = (val Logs.src_log src : Logs.LOG)

exception Error of string

let fail m = raise (Error m)

type source = Graph of Fdlsp_graph.Graph.t | Restore of string | Recover
type slo = P99_repair_ms | Events_per_sec | Queue_depth

let slo_names =
  [ ("p99_repair_ms", P99_repair_ms); ("events_per_sec", Events_per_sec);
    ("queue_depth", Queue_depth) ]

let slo_of_string s = List.assoc_opt s slo_names
let slo_name k = fst (List.find (fun (_, k') -> k' = k) slo_names)

type config = {
  source : source;
  wal : string option;
  auto_snapshot : int;
  flight : string option;
  max_batch : int option;
  rate : float option;
  health_every : int option;
  slos : (slo * float) list;
  check : bool;
}

type t = {
  cfg : config;
  reg : Metrics.t;
  fr : Flight.t;
  flight_path : string option;
  svc : Service.t;
  store : Wal.Store.t option;
  recovery : Wal.Store.recovery option;
  adm : Admission.t option;
  win : Metrics.Window.w;
  on_health : string -> unit;
  mutable clock : float;
  mutable applied : int;
  mutable offered_events : int;
  mutable applied_events : int;
  mutable skipped_events : int;
  mutable rejected_events : int;
  mutable samples : int;
  mutable slo_burned : bool;
}

let service t = t.svc
let metrics t = t.reg
let recorder t = t.fr

let dump t reason =
  match t.flight_path with
  | None -> ()
  | Some path -> (
      try Flight.dump t.fr ~reason path
      with Sys_error m -> Log.warn (fun k -> k "flight dump failed: %s" m))

let repair_hist = Metrics.Name.service_repair ^ "_seconds"
(* JSON has no NaN or infinity *)
let num_or_null f = if Float.is_finite f then Printf.sprintf "%g" f else "null"

let build_service cfg ~metrics ~spans =
  let guard f = try f () with Failure m | Sys_error m -> fail m in
  let with_store svc =
    let store =
      Option.map
        (fun dir ->
          guard (fun () ->
              Wal.Store.create ~metrics ~spans ~auto_snapshot:cfg.auto_snapshot ~dir svc))
        cfg.wal
    in
    (store, svc, None)
  in
  match (cfg.source, cfg.wal) with
  | Recover, None -> invalid_arg "Server.create: Recover needs a WAL directory"
  | Recover, Some dir ->
      let st, rv =
        guard (fun () ->
            Wal.Store.recover ~metrics ~spans ~auto_snapshot:cfg.auto_snapshot ~dir ())
      in
      (Some st, Wal.Store.service st, Some rv)
  | Graph g, _ ->
      with_store (Service.create ~metrics ~spans (Dfs_sched.run g).Dfs_sched.schedule)
  | Restore path, _ ->
      with_store
        (guard (fun () ->
             Service.restore ~metrics ~spans
               (In_channel.with_open_text path In_channel.input_all)))

let create ?(on_health = ignore) cfg =
  let reg = Metrics.create () in
  let metrics = Metrics.sink reg in
  (* always-on: bounded rings, so keeping it hot costs about a megabyte
     at worst; dumps only happen when a dump path exists *)
  let fr = Flight.create () in
  let spans = Flight.spans fr in
  let store, svc, recovery = build_service cfg ~metrics ~spans in
  let adm =
    if cfg.max_batch = None && cfg.rate = None then None
    else begin
      let d = Admission.default_limits in
      let max_batch = Option.value cfg.max_batch ~default:d.Admission.max_batch in
      let rate = Option.value cfg.rate ~default:Float.infinity in
      (* the bucket must hold at least one full batch or a legal batch
         could never pay and would defer forever; two rate-ticks of
         headroom keeps a compliant source out of the deferred path *)
      let burst = Float.max (float_of_int max_batch) (2. *. rate) in
      Some
        (Admission.create ~metrics ~spans ~limits:{ d with Admission.max_batch; rate; burst }
           ())
    end
  in
  let t =
    {
      cfg;
      reg;
      fr;
      flight_path =
        (match cfg.flight with
        | Some _ as p -> p
        | None -> Option.map (fun dir -> Filename.concat dir "flight.fdr") cfg.wal);
      svc;
      store;
      recovery;
      adm;
      win = Metrics.Window.start reg;
      on_health;
      clock = 0.;
      applied = 0;
      offered_events = 0;
      applied_events = 0;
      skipped_events = 0;
      rejected_events = 0;
      samples = 0;
      slo_burned = false;
    }
  in
  (* whatever SIGKILL leaves behind, a drill must find a dump: write one
     as soon as the store exists, then refresh it periodically *)
  (match recovery with
  | Some rv when rv.Wal.Store.rv_tail <> Wal.Clean || rv.Wal.Store.rv_invalid > 0 ->
      dump t "wal-recovery-scrub"
  | _ -> ());
  dump t "startup";
  t

let emit_health t line =
  t.on_health line;
  Flight.note_health t.fr line

(* One sample of window deltas over the registry.  [advance]
   re-baselines after every sample, so summing a field over all samples
   reconciles exactly with the final counters. *)
let health_sample t =
  let module W = Metrics.Window in
  let win = t.win in
  t.samples <- t.samples + 1;
  let ev = W.counter_delta win Metrics.Name.service_events in
  let nobs = W.observations win repair_hist in
  let rs = W.sum_delta win repair_hist in
  let p50 = W.quantile win repair_hist 0.5 *. 1000. in
  let p99 = W.quantile win repair_hist 0.99 *. 1000. in
  let events_per_sec = if rs > 0. then float_of_int ev /. rs else 0. in
  let qd = match t.adm with Some a -> Admission.queue_depth a | None -> 0 in
  emit_health t
    (Printf.sprintf
       "{\"health\":%d,\"batches\":%d,\"events\":%d,\"repairs\":%d,\
        \"events_per_sec\":%s,\"repair_ms_p50\":%s,\"repair_ms_p99\":%s,\
        \"queue_depth\":%d,\"admitted\":%d,\"deferred\":%d,\"rejected\":%d,\
        \"shed\":%d,\"wal_bytes\":%d,\"degraded\":%b}"
       t.samples (Service.totals t.svc).Service.batches ev nobs
       (num_or_null events_per_sec)
       (num_or_null p50) (num_or_null p99) qd
       (W.counter_delta win Metrics.Name.admission_admitted)
       (W.counter_delta win Metrics.Name.admission_deferred)
       (W.counter_delta win Metrics.Name.admission_rejected)
       (W.counter_delta win Metrics.Name.admission_shed)
       (W.counter_delta win Metrics.Name.wal_bytes)
       (match t.adm with Some a -> Admission.degraded a | None -> false));
  List.iter
    (fun (slo, bound) ->
      let burned, actual =
        match slo with
        | P99_repair_ms -> ((not (Float.is_nan p99)) && p99 > bound, p99)
        | Events_per_sec -> (nobs > 0 && events_per_sec < bound, events_per_sec)
        | Queue_depth -> (float_of_int qd > bound, float_of_int qd)
      in
      if burned then begin
        let key = slo_name slo in
        t.slo_burned <- true;
        Span.mark (Flight.spans t.fr) "slo.burned" ~args:[ (key, Printf.sprintf "%g" actual) ];
        emit_health t
          (Printf.sprintf "{\"alert\":\"slo\",\"slo\":%S,\"bound\":%s,\"actual\":%s,\"sample\":%d}"
             key (num_or_null bound) (num_or_null actual) t.samples)
      end)
    t.cfg.slos;
  W.advance win

let apply t ~lenient evs =
  (match
     match t.store with
     | Some st -> Wal.Store.apply st evs
     | None -> Service.apply t.svc evs
   with
  | exception Invalid_argument m ->
      t.skipped_events <- t.skipped_events + List.length evs;
      dump t "apply-failure";
      if lenient then Log.warn (fun k -> k "batch skipped: %s" m) else fail m
  | (_ : Service.batch) ->
      t.applied <- t.applied + 1;
      t.applied_events <- t.applied_events + List.length evs;
      (match t.cfg.health_every with
      | Some k when t.applied mod k = 0 -> health_sample t
      | _ -> ());
      if t.applied mod 64 = 0 then dump t "periodic");
  if t.cfg.check && not (Schedule.valid (Service.schedule t.svc)) then begin
    dump t "check-divergence";
    fail "schedule invalid after batch"
  end

let rec drain t adm =
  match Admission.poll adm ~now:t.clock with
  | Some evs ->
      apply t ~lenient:true evs;
      drain t adm
  | None -> ()

let offer t evs =
  t.clock <- t.clock +. 1.;
  t.offered_events <- t.offered_events + List.length evs;
  match t.adm with
  | None -> apply t ~lenient:false evs
  | Some adm ->
      (match Admission.offer adm ~source:0 ~now:t.clock evs with
      | exception Invalid_argument m -> fail m
      | Admission.Rejected _ -> t.rejected_events <- t.rejected_events + List.length evs
      | Admission.Admitted | Admission.Deferred -> ());
      drain t adm

type summary = {
  nodes : int;
  live : int;
  links : int;
  slots : int;
  valid : bool;
  totals : Service.totals;
  events_per_sec : float;
  repair_ms_p50 : float;
  repair_ms_p99 : float;
  recovery : Wal.Store.recovery option;
  admission : Admission.counts option;
  queries : (int * int * int option) list;
  slo_burned : bool;
  offered : int;
  applied : int;
  skipped : int;
  rejected : int;
}

let finish ?(queries = []) t =
  (* end of stream: jump the clock to each next release until the queue
     is empty; [create] sizes every bucket to hold a whole batch, so
     every deferred batch becomes payable *)
  (match t.adm with
  | None -> ()
  | Some adm ->
      let rec go () =
        match Admission.next_release adm with
        | Some at ->
            t.clock <- Float.max t.clock at;
            drain t adm;
            go ()
        | None -> ()
      in
      go ();
      assert (Admission.queue_depth adm = 0));
  (* the tail window since the last cadence boundary, so per-field sums
     over all samples equal the final counters *)
  if t.cfg.health_every <> None then health_sample t;
  dump t "shutdown";
  Option.iter Wal.Store.close t.store;
  let svc = t.svc in
  let totals = Service.totals svc in
  let hist = Metrics.histogram t.reg repair_hist in
  let quant q =
    match hist with
    | Some h when Metrics.Hist.count h > 0 -> Metrics.Hist.quantile h q *. 1000.
    | _ -> Float.nan
  in
  let repair_secs = match hist with Some h -> Metrics.Hist.sum h | None -> 0. in
  {
    nodes = Service.nodes svc;
    live = Service.live svc;
    links = Fdlsp_graph.Graph.m (Service.graph svc);
    slots = Service.num_slots svc;
    valid = Schedule.valid (Service.schedule svc);
    totals;
    events_per_sec =
      (if repair_secs > 0. then float_of_int totals.Service.events /. repair_secs else 0.);
    repair_ms_p50 = quant 0.5;
    repair_ms_p99 = quant 0.99;
    recovery = t.recovery;
    admission = Option.map Admission.counts t.adm;
    queries = List.map (fun (u, v) -> (u, v, Service.slot_of_arc svc u v)) queries;
    slo_burned = t.slo_burned;
    offered = t.offered_events;
    applied = t.applied_events;
    skipped = t.skipped_events;
    rejected = t.rejected_events;
  }
