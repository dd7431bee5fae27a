module Metrics = Fdlsp_sim.Metrics
module Span = Fdlsp_sim.Span
module Name = Metrics.Name

let src = Logs.Src.create "fdlsp.admission" ~doc:"service admission control"

module Log = (val Logs.src_log src : Logs.LOG)

type reason =
  | Rate_limited
  | Queue_full
  | Batch_too_large
  | Node_out_of_range
  | Degree_delta_exceeded

let reason_to_string = function
  | Rate_limited -> "rate_limited"
  | Queue_full -> "queue_full"
  | Batch_too_large -> "batch_too_large"
  | Node_out_of_range -> "node_out_of_range"
  | Degree_delta_exceeded -> "degree_delta_exceeded"

type outcome = Admitted | Deferred | Rejected of reason

type limits = {
  rate : float;
  burst : float;
  queue_cap : int;
  defer_cap : int;
  max_batch : int;
  max_node : int;
  max_degree_delta : int;
  degrade_high : float;
  degrade_low : float;
}

let default_limits =
  {
    rate = 256.;
    burst = 512.;
    queue_cap = 1024;
    defer_cap = 128;
    max_batch = 256;
    max_node = 1_000_000;
    max_degree_delta = 64;
    degrade_high = 0.75;
    degrade_low = 0.25;
  }

type counts = {
  c_admitted : int;
  c_deferred : int;
  c_rejected : int;
  c_shed : int;
  c_released : int;
}

type bucket = { mutable tokens : float; mutable refilled : float; mutable parked : int }

type entry = { e_source : int; e_events : Service.event list; e_cost : int }

type t = {
  lim : limits;
  metrics : Metrics.sink;
  spans : Span.sink;
  buckets : (int, bucket) Hashtbl.t;
  ready : entry Queue.t;
  mutable deferred : entry list;  (* arrival order *)
  mutable depth : int;  (* queued events, ready + deferred *)
  mutable degraded : bool;
  mutable last_now : float;
  mutable admitted : int;
  mutable deferred_n : int;
  mutable rejected : int;
  mutable shed : int;
  mutable released : int;
}

let create ?(metrics = Metrics.null) ?(spans = Span.null) ?(limits = default_limits)
    () =
  if limits.queue_cap <= 0 then invalid_arg "Admission.create: queue_cap must be > 0";
  if limits.defer_cap < 0 then invalid_arg "Admission.create: negative defer_cap";
  if limits.max_batch <= 0 then invalid_arg "Admission.create: max_batch must be > 0";
  if limits.max_node < 0 then invalid_arg "Admission.create: negative max_node";
  if limits.max_degree_delta < 0 then
    invalid_arg "Admission.create: negative max_degree_delta";
  if limits.rate <= 0. || Float.is_nan limits.rate then
    invalid_arg "Admission.create: rate must be positive";
  if limits.burst < 1. && limits.rate <> Float.infinity then
    invalid_arg "Admission.create: burst must be >= 1";
  if
    (not (limits.degrade_low >= 0.))
    || (not (limits.degrade_high <= 1.))
    || limits.degrade_low > limits.degrade_high
  then invalid_arg "Admission.create: need 0 <= degrade_low <= degrade_high <= 1";
  {
    lim = limits;
    metrics;
    spans;
    buckets = Hashtbl.create 16;
    ready = Queue.create ();
    deferred = [];
    depth = 0;
    degraded = false;
    last_now = Float.neg_infinity;
    admitted = 0;
    deferred_n = 0;
    rejected = 0;
    shed = 0;
    released = 0;
  }

let queue_depth t = t.depth
let degraded t = t.degraded

let counts t =
  {
    c_admitted = t.admitted;
    c_deferred = t.deferred_n;
    c_rejected = t.rejected;
    c_shed = t.shed;
    c_released = t.released;
  }

let advance t now =
  if Float.is_nan now then invalid_arg "Admission: now is NaN";
  if now < t.last_now then invalid_arg "Admission: time went backwards";
  t.last_now <- now

let bucket_for t source now =
  match Hashtbl.find_opt t.buckets source with
  | Some b -> b
  | None ->
      let b = { tokens = t.lim.burst; refilled = now; parked = 0 } in
      Hashtbl.replace t.buckets source b;
      b

(* What [b] holds at [now], no earlier than its last refill. *)
let tokens_at t b now =
  if t.lim.rate = Float.infinity then t.lim.burst
  else Float.min t.lim.burst (b.tokens +. ((now -. b.refilled) *. t.lim.rate))

let refill t b now =
  b.tokens <- tokens_at t b now;
  b.refilled <- now

(* Hysteresis on queue fill; mirrored into the degraded gauge. *)
let update_mode t =
  let fill = float_of_int t.depth /. float_of_int t.lim.queue_cap in
  let was = t.degraded in
  if t.degraded then begin
    if fill <= t.lim.degrade_low then t.degraded <- false
  end
  else if fill >= t.lim.degrade_high then t.degraded <- true;
  if Metrics.enabled t.metrics then begin
    Metrics.gauge t.metrics Name.admission_queue_depth (float_of_int t.depth);
    Metrics.gauge t.metrics Name.admission_degraded (if t.degraded then 1. else 0.)
  end;
  if was <> t.degraded then
    Log.info (fun m ->
        m "%s degraded mode (queue %d/%d)"
          (if t.degraded then "entering" else "leaving")
          t.depth t.lim.queue_cap)

(* ------------------------------------------------------------------ *)
(* Structural limits                                                   *)
(* ------------------------------------------------------------------ *)

let structural_violation t events =
  let lim = t.lim in
  let n = List.length events in
  if n > lim.max_batch then Some Batch_too_large
  else begin
    let bad_id v = v < 0 || v > lim.max_node in
    let delta : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let bump v k =
      Hashtbl.replace delta v (k + Option.value (Hashtbl.find_opt delta v) ~default:0)
    in
    let exception Bad of reason in
    try
      List.iter
        (fun ev ->
          match (ev : Service.event) with
          | Join { node; neighbors } | Move { node; neighbors } ->
              if bad_id node then raise (Bad Node_out_of_range);
              List.iter
                (fun w ->
                  if bad_id w then raise (Bad Node_out_of_range);
                  bump w 1)
                neighbors;
              bump node (List.length neighbors)
          | Leave node -> if bad_id node then raise (Bad Node_out_of_range)
          | Degrade { u; v } ->
              if bad_id u || bad_id v then raise (Bad Node_out_of_range);
              bump u 1;
              bump v 1)
        events;
      Hashtbl.iter
        (fun _ k -> if k > lim.max_degree_delta then raise (Bad Degree_delta_exceeded))
        delta;
      None
    with Bad r -> Some r
  end

(* ------------------------------------------------------------------ *)
(* Offer / poll                                                        *)
(* ------------------------------------------------------------------ *)

let reject t reason =
  t.rejected <- t.rejected + 1;
  if Metrics.enabled t.metrics then
    Metrics.inc
      (Metrics.with_label t.metrics "reason" (reason_to_string reason))
      Name.admission_rejected;
  Span.mark t.spans "admission.rejected"
    ~args:[ ("reason", reason_to_string reason) ];
  Log.debug (fun m -> m "rejected: %s" (reason_to_string reason));
  Rejected reason

(* In degraded mode only topology-essential work ([Join]/[Leave]) is
   queued; [Move]/[Degrade] refinement is shed and counted. *)
let shed_refinement t events =
  if not t.degraded then events
  else begin
    let keep, drop =
      List.partition
        (function Service.Join _ | Service.Leave _ -> true | _ -> false)
        events
    in
    let k = List.length drop in
    if k > 0 then begin
      t.shed <- t.shed + k;
      if Metrics.enabled t.metrics then
        Metrics.inc ~by:k t.metrics Name.admission_shed
    end;
    keep
  end

let offer t ~source ~now events =
  advance t now;
  match structural_violation t events with
  | Some r -> reject t r
  | None -> (
      let events = shed_refinement t events in
      let cost = List.length events in
      if t.depth + cost > t.lim.queue_cap then reject t Queue_full
      else begin
        let b = bucket_for t source now in
        refill t b now;
        (* a source with parked batches must keep deferring even when it
           could pay: admitting to the ready queue would overtake its own
           deferred work and reorder the source's stream *)
        if b.parked = 0 && b.tokens >= float_of_int cost then begin
          b.tokens <- b.tokens -. float_of_int cost;
          Queue.add { e_source = source; e_events = events; e_cost = cost } t.ready;
          t.depth <- t.depth + cost;
          t.admitted <- t.admitted + 1;
          if Metrics.enabled t.metrics then
            Metrics.inc t.metrics Name.admission_admitted;
          Span.mark t.spans "admission.admitted"
            ~args:[ ("cost", string_of_int cost) ];
          update_mode t;
          Admitted
        end
        else if b.parked + cost > t.lim.defer_cap then reject t Rate_limited
        else begin
          b.parked <- b.parked + cost;
          t.deferred <-
            t.deferred @ [ { e_source = source; e_events = events; e_cost = cost } ];
          t.depth <- t.depth + cost;
          t.deferred_n <- t.deferred_n + 1;
          if Metrics.enabled t.metrics then
            Metrics.inc t.metrics Name.admission_deferred;
          Span.mark t.spans "admission.deferred"
            ~args:[ ("cost", string_of_int cost) ];
          update_mode t;
          Deferred
        end
      end)

let rec poll t ~now =
  advance t now;
  let release e =
    t.depth <- t.depth - e.e_cost;
    update_mode t;
    (* a batch shed down to nothing releases as no work *)
    if e.e_events = [] then poll t ~now else Some e.e_events
  in
  match Queue.take_opt t.ready with
  | Some e -> release e
  | None ->
      (* the first source whose oldest deferred batch it can pay for
         now; scanning past a still-broke source keeps one flooder from
         blocking the rest, and skipping that source's later batches
         keeps its own stream in order *)
      let rec scan acc broke = function
        | [] -> None
        | e :: rest when List.mem e.e_source broke -> scan (e :: acc) broke rest
        | e :: rest ->
            let b = bucket_for t e.e_source now in
            refill t b now;
            if b.tokens >= float_of_int e.e_cost then begin
              b.tokens <- b.tokens -. float_of_int e.e_cost;
              b.parked <- b.parked - e.e_cost;
              t.deferred <- List.rev_append acc rest;
              t.released <- t.released + 1;
              release e
            end
            else scan (e :: acc) (e.e_source :: broke) rest
      in
      scan [] [] t.deferred

(* The first [now] at which [b] holds [cost] tokens, or [None] past its
   capacity.  Solves the refill line, then steps forward until
   [tokens_at] itself agrees, so a [poll] at that time pays. *)
let payable_at t b cost =
  if cost > t.lim.burst then None
  else begin
    let from =
      if t.lim.rate = Float.infinity then t.last_now
      else Float.max t.last_now (b.refilled +. ((cost -. b.tokens) /. t.lim.rate))
    in
    let rec settle at step =
      if tokens_at t b at >= cost then at else settle (at +. step) (2. *. step)
    in
    Some (settle from (Float.succ from -. from))
  end

let next_release t =
  if not (Queue.is_empty t.ready) then Some t.last_now
  else
    (* only each source's oldest deferred batch is eligible *)
    let rec earliest best seen = function
      | [] -> best
      | e :: rest when List.mem e.e_source seen -> earliest best seen rest
      | e :: rest ->
          let at = payable_at t (Hashtbl.find t.buckets e.e_source) (float_of_int e.e_cost) in
          let best =
            match (best, at) with
            | Some b, Some a -> Some (Float.min a b)
            | None, at | at, None -> at
          in
          earliest best (e.e_source :: seen) rest
    in
    earliest None [] t.deferred
