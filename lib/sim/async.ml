open Fdlsp_graph

type delay = Unit | Uniform of Random.State.t * float * float

(* --- binary min-heap of events, keyed by (time, seq) for determinism ---
   Parallel arrays: times stay unboxed in a float array and the key
   comparison is monomorphic, so a push or pop allocates nothing and
   never calls the polymorphic compare.  The payload array is created by
   the first push, from that payload. *)
module Heap = struct
  type 'a t = {
    mutable time : float array;
    mutable seq : int array;
    mutable data : 'a array;
    mutable size : int;
  }

  let create () = { time = [||]; seq = [||]; data = [||]; size = 0 }
  let is_empty h = h.size = 0

  let lt h i j =
    let ti : float = h.time.(i) and tj = h.time.(j) in
    ti < tj || (ti = tj && h.seq.(i) < h.seq.(j))

  let swap h i j =
    let t = h.time.(i) and s = h.seq.(i) and d = h.data.(i) in
    h.time.(i) <- h.time.(j);
    h.seq.(i) <- h.seq.(j);
    h.data.(i) <- h.data.(j);
    h.time.(j) <- t;
    h.seq.(j) <- s;
    h.data.(j) <- d

  let grow h payload =
    let cap = max 16 (2 * h.size) in
    let time = Array.make cap 0. and seq = Array.make cap 0 and data = Array.make cap payload in
    Array.blit h.time 0 time 0 h.size;
    Array.blit h.seq 0 seq 0 h.size;
    Array.blit h.data 0 data 0 h.size;
    h.time <- time;
    h.seq <- seq;
    h.data <- data

  let push h time seq payload =
    if h.size = Array.length h.data then grow h payload;
    let i = ref h.size in
    h.time.(!i) <- time;
    h.seq.(!i) <- seq;
    h.data.(!i) <- payload;
    h.size <- h.size + 1;
    while !i > 0 && lt h !i ((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      swap h !i p;
      i := p
    done

  (* time of the next event to pop *)
  let min_time h =
    if h.size = 0 then invalid_arg "Heap.min_time: empty";
    h.time.(0)

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.data.(0) in
    h.size <- h.size - 1;
    let last = h.size in
    h.time.(0) <- h.time.(last);
    h.seq.(0) <- h.seq.(last);
    h.data.(0) <- h.data.(last);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && lt h l !smallest then smallest := l;
      if r < h.size && lt h r !smallest then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    top
end

type 'msg event =
  | Deliver of { src : int; dst : int; payload : 'msg }
      (** unreliable direct delivery (no ARQ) *)
  | RData of { src : int; dst : int; seq : int; payload : 'msg }
  | RAck of { src : int; dst : int; seq : int }
      (** [src] is the acker, [dst] the original sender *)
  | Rto of { src : int; dst : int; seq : int; interval : float }
      (** retransmission timer at the sender *)
  | Timer of { node : int; payload : 'msg }
      (** self-delivery scheduled by {!set_timer}; bypasses channels,
          faults and message accounting *)

type 'msg engine = {
  g : Graph.t;
  heap : 'msg event Heap.t;
  delay : delay;
  weight : 'msg -> int;
  session : Fault.session option;
  corrupt : ('msg -> 'msg) option;
  rel : Reliable.config option;
  drift : (int -> float) option;
  trace : Trace.sink;
  traced : bool;
  (* plan crash/recovery boundaries not yet emitted, ascending; flushed
     lazily as the clock passes them so the heap is never perturbed *)
  mutable boundaries : (float * Trace.event) list;
  mutable seq : int;
  mutable clock : float;
  mutable sent : int;
  mutable volume : int;
  mutable retransmits : int;
  mutable gave_up : int;
  mutable used_timers : bool;
  mutable last_user : float;  (* time of the last user-level delivery *)
  (* Per-channel state is flat: a directed channel (src, dst) is the arc
     [Arc.make g src dst], a dense id in [0 .. 2m-1], so the FIFO fronts
     and ARQ counters live in plain arrays instead of the (src, dst)
     hashtables this used to carry — those were created at a fixed
     capacity of 64, rehashed repeatedly at large n, and allocated a
     tuple key per send on the hot path. *)
  channel_front : float array;  (* next admissible delivery time; [-inf) = free *)
  (* ARQ state, used only when [rel] is set.  [unacked]/[rx_buf] are
     keyed (arc, seq) — seq is unbounded, so they stay hashtables, but
     sized by the graph instead of a constant. *)
  tx_seq : int array;
  unacked : (int * int, 'msg * int) Hashtbl.t;  (* payload, tries *)
  rx_next : int array;
  rx_buf : (int * int, 'msg) Hashtbl.t;
}

type 'msg ctx = { engine : 'msg engine; node : int }

let self c = c.node
let neighbors c = Graph.neighbors c.engine.g c.node
let now c = c.engine.clock

let clock_rate c =
  match c.engine.drift with
  | None -> 1.
  | Some f ->
      let r = f c.node in
      if not (r > 0.) then
        invalid_arg
          (Printf.sprintf "Async: drift rate %g for node %d (must be > 0)" r c.node);
      r

let bad_delay = "Async: Uniform delay requires 0 < lo <= hi"

let draw_delay e =
  match e.delay with
  | Unit -> 1.
  | Uniform (rng, lo, hi) ->
      if lo <= 0. || lo > hi then invalid_arg bad_delay;
      lo +. Random.State.float rng (hi -. lo)

let schedule e time ev =
  Heap.push e.heap time e.seq ev;
  e.seq <- e.seq + 1

let temit e ev = if e.traced then Trace.emit e.trace ~t:e.clock ev

(* emit plan boundaries the clock has passed, in time order *)
let flush_boundaries e upto =
  if e.traced then begin
    let rec loop () =
      match e.boundaries with
      | (t, ev) :: rest when t <= upto ->
          Trace.emit e.trace ~t ev;
          e.boundaries <- rest;
          loop ()
      | _ -> ()
    in
    loop ()
  end

(* trace the channel verdict for one transmission; [delivered_corrupt]
   says whether a corrupted copy still reaches the handler (plain sends)
   or fails its checksum and is counted dropped (ARQ frames) *)
let temit_verdict e ~src ~dst ~delivered_corrupt (v : Fault.verdict) =
  if e.traced then begin
    if v.Fault.copies = 0 then Trace.emit e.trace ~t:e.clock (Trace.Drop { src; dst })
    else begin
      if v.Fault.copies > 1 then
        Trace.emit e.trace ~t:e.clock (Trace.Duplicate { src; dst });
      if v.Fault.corrupted && not delivered_corrupt then
        for _ = 1 to v.Fault.copies do
          Trace.emit e.trace ~t:e.clock (Trace.Drop { src; dst })
        done
    end
  end

let crashed_now e v = match e.session with
  | None -> false
  | Some s -> Fault.crashed s v e.clock

(* FIFO-clamped arrival time on channel (src, dst) *)
let fifo_arrival e src dst =
  let arrival = e.clock +. draw_delay e in
  let a = Arc.make e.g src dst in
  let arrival = if e.channel_front.(a) > arrival then e.channel_front.(a) else arrival in
  e.channel_front.(a) <- arrival;
  arrival

let send_plain e src dst payload =
  match e.session with
  | None -> schedule e (fifo_arrival e src dst) (Deliver { src; dst; payload })
  | Some s ->
      let v = Fault.transmit s ~src ~dst in
      temit_verdict e ~src ~dst ~delivered_corrupt:true v;
      for _ = 1 to v.Fault.copies do
        let payload =
          if v.Fault.corrupted then
            match e.corrupt with Some f -> f payload | None -> payload
          else payload
        in
        (* a reordered copy escapes the FIFO clamp *)
        let arrival =
          if v.Fault.reordered then e.clock +. draw_delay e else fifo_arrival e src dst
        in
        schedule e arrival (Deliver { src; dst; payload })
      done

(* Wire-level ARQ transmission: no FIFO clamp (sequence numbers restore
   order); corrupted copies fail their checksum and vanish. *)
let transmit_rdata e src dst sq payload =
  match e.session with
  | None -> schedule e (e.clock +. draw_delay e) (RData { src; dst; seq = sq; payload })
  | Some s ->
      let v = Fault.transmit s ~src ~dst in
      temit_verdict e ~src ~dst ~delivered_corrupt:false v;
      for _ = 1 to v.Fault.copies do
        if v.Fault.corrupted then Fault.count_drop s
        else schedule e (e.clock +. draw_delay e) (RData { src; dst; seq = sq; payload })
      done

let transmit_rack e src dst sq =
  e.sent <- e.sent + 1;
  e.volume <- e.volume + 1;
  temit e (Trace.Send { src; dst });
  match e.session with
  | None -> schedule e (e.clock +. draw_delay e) (RAck { src; dst; seq = sq })
  | Some s ->
      let v = Fault.transmit s ~src ~dst in
      temit_verdict e ~src ~dst ~delivered_corrupt:false v;
      for _ = 1 to v.Fault.copies do
        if v.Fault.corrupted then Fault.count_drop s
        else schedule e (e.clock +. draw_delay e) (RAck { src; dst; seq = sq })
      done

let send_arq e cfg src dst payload =
  let a = Arc.make e.g src dst in
  let sq = e.tx_seq.(a) in
  e.tx_seq.(a) <- sq + 1;
  Hashtbl.replace e.unacked (a, sq) (payload, 0);
  transmit_rdata e src dst sq payload;
  schedule e
    (e.clock +. cfg.Reliable.timeout)
    (Rto { src; dst; seq = sq; interval = cfg.Reliable.timeout })

let send c dst payload =
  let e = c.engine in
  if not (Graph.mem_edge e.g c.node dst) then
    invalid_arg
      (Printf.sprintf "Async.send: node %d sent to non-neighbor %d" c.node dst);
  e.sent <- e.sent + 1;
  e.volume <- e.volume + max 1 (e.weight payload);
  temit e (Trace.Send { src = c.node; dst });
  match e.rel with
  | None -> send_plain e c.node dst payload
  | Some cfg -> send_arq e cfg c.node dst payload

(* A local timer ticks in the node's own clock: a node whose oscillator
   runs fast (rate < 1 would be slow) sees its timers fire early in
   simulation time — the mechanism frame protocols drift with. *)
let set_timer c delay payload =
  if not (delay > 0.) then invalid_arg "Async.set_timer: delay must be > 0";
  let e = c.engine in
  e.used_timers <- true;
  schedule e (e.clock +. (delay *. clock_rate c)) (Timer { node = c.node; payload })

type ('state, 'msg) handler = 'msg ctx -> 'state -> sender:int -> 'msg -> 'state

exception Too_many_events of int

let run ?(delay = Unit) ?(max_events = 1_000_000) ?(weight = fun _ -> 1) ?faults ?corrupt
    ?blip ?reliable ?drift ?(trace = Trace.null) ?(metrics = Metrics.null)
    ?(spans = Span.null) g ~init ~starts ~handler =
  let metrics = Metrics.with_label metrics "engine" "async" in
  let mtr = Metrics.enabled metrics in
  (match delay with
  | Uniform (_, lo, hi) when lo <= 0. || lo > hi -> invalid_arg bad_delay
  | _ -> ());
  (match reliable with
  | Some cfg ->
      if cfg.Reliable.timeout < 1. then invalid_arg "Reliable: timeout must be >= 1";
      if cfg.Reliable.backoff < 1. then invalid_arg "Reliable: backoff must be >= 1";
      if cfg.Reliable.max_interval < cfg.Reliable.timeout then
        invalid_arg "Reliable: max_interval below timeout"
  | None -> ());
  let session =
    match faults with
    | Some p when not (Fault.is_none p) -> Some (Fault.start p)
    | _ -> None
  in
  let traced = Trace.enabled trace in
  let boundaries =
    if not traced then []
    else
      match faults with
      | Some p ->
          List.sort Trace.compare_boundary
            (List.concat_map
               (fun c ->
                 let crash = (c.Fault.at, Trace.Crash c.Fault.node) in
                 match c.Fault.until with
                 | None -> [ crash ]
                 | Some u -> [ crash; (u, Trace.Recover c.Fault.node) ])
               (Fault.crashes p))
      | None -> []
  in
  let engine =
    {
      g;
      heap = Heap.create ();
      delay;
      weight;
      session;
      corrupt;
      rel = reliable;
      drift;
      trace;
      traced;
      boundaries;
      seq = 0;
      clock = 0.;
      sent = 0;
      volume = 0;
      retransmits = 0;
      gave_up = 0;
      used_timers = false;
      last_user = 0.;
      (* plain sends use the FIFO clamp, ARQ frames the seq counters;
         only the arrays the configuration can touch are allocated *)
      channel_front =
        (if reliable = None then Array.make (Arc.count g) neg_infinity else [||]);
      tx_seq = (if reliable = None then [||] else Array.make (Arc.count g) 0);
      unacked = Hashtbl.create (max 64 (Graph.n g));
      rx_next = (if reliable = None then [||] else Array.make (Arc.count g) 0);
      rx_buf = Hashtbl.create (max 64 (Graph.n g));
    }
  in
  let states = Array.init (Graph.n g) init in
  (* state blips from the plan, applied once the event clock crosses
     them (a blip after the last event never fires) *)
  let pending_blips =
    ref (match faults with Some p -> Fault.blips p | None -> [])
  in
  let n = Graph.n g in
  let apply_blips upto =
    let rec loop () =
      match !pending_blips with
      | b :: rest when b.Fault.b_at <= upto ->
          pending_blips := rest;
          if b.Fault.b_node < n then begin
            (match session with Some s -> Fault.count_blip s | None -> ());
            (match blip with
            | Some f -> states.(b.Fault.b_node) <- f b states.(b.Fault.b_node)
            | None -> ())
          end;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  flush_boundaries engine 0.;
  apply_blips 0.;
  List.iter
    (fun (v, action) ->
      if not (crashed_now engine v) then
        states.(v) <- action { engine; node = v } states.(v))
    starts;
  let deliver_user ~src ~dst payload =
    temit engine (Trace.Recv { src; dst });
    states.(dst) <- handler { engine; node = dst } states.(dst) ~sender:src payload;
    engine.last_user <- engine.clock;
    if mtr then
      (* cumulative sends over the engine clock: the async analogue of
         the sync engines' per-round message series *)
      Metrics.sample metrics Metrics.Name.round_messages ~x:engine.clock
        (float_of_int engine.sent)
  in
  let drop_crashed ~src ~dst =
    Fault.count_drop (Option.get session);
    temit engine (Trace.Drop { src; dst })
  in
  let events = ref 0 in
  (* one span for the whole delivery loop: per-event spans would swamp
     the ring (an async run is millions of heap pops) *)
  Span.span spans "async.run" @@ fun () ->
  while not (Heap.is_empty engine.heap) do
    incr events;
    if !events > max_events then raise (Too_many_events max_events);
    let time = Heap.min_time engine.heap in
    let ev = Heap.pop engine.heap in
    engine.clock <- time;
    if mtr then
      Metrics.observe metrics Metrics.Name.queue_depth
        (float_of_int engine.heap.Heap.size);
    flush_boundaries engine time;
    apply_blips time;
    match ev with
    | Deliver { src; dst; payload } ->
        if crashed_now engine dst then drop_crashed ~src ~dst
        else deliver_user ~src ~dst payload
    | Timer { node; payload } ->
        (* a crashed node's timer fires into the void: no drop counted,
           nothing was on the wire *)
        if not (crashed_now engine node) then
          states.(node) <-
            handler { engine; node } states.(node) ~sender:node payload
    | RData { src; dst; seq; payload } ->
        if crashed_now engine dst then drop_crashed ~src ~dst
        else begin
          transmit_rack engine dst src seq;
          let a = Arc.make g src dst in
          if seq >= engine.rx_next.(a) then Hashtbl.replace engine.rx_buf (a, seq) payload;
          let rec flush exp =
            match Hashtbl.find_opt engine.rx_buf (a, exp) with
            | Some p ->
                Hashtbl.remove engine.rx_buf (a, exp);
                engine.rx_next.(a) <- exp + 1;
                deliver_user ~src ~dst p;
                flush (exp + 1)
            | None -> ()
          in
          flush engine.rx_next.(a)
        end
    | RAck { src; dst; seq } ->
        (* [dst] is the original sender waiting on this ack *)
        if crashed_now engine dst then drop_crashed ~src ~dst
        else Hashtbl.remove engine.unacked (Arc.make g dst src, seq)
    | Rto { src; dst; seq; interval } -> (
        let a = Arc.make g src dst in
        match Hashtbl.find_opt engine.unacked (a, seq) with
        | None -> ()  (* acknowledged *)
        | Some (payload, tries) ->
            let cfg = Option.get engine.rel in
            if crashed_now engine src then
              (* sender down: retry once it might be back *)
              schedule engine (time +. interval) (Rto { src; dst; seq; interval })
            else (
              match cfg.Reliable.max_retries with
              | Some budget when tries >= budget ->
                  Hashtbl.remove engine.unacked (a, seq);
                  engine.gave_up <- engine.gave_up + 1;
                  temit engine (Trace.Give_up { src; dst });
                  (match session with
                  | Some s ->
                      Fault.count_drop s;
                      temit engine (Trace.Drop { src; dst })
                  | None -> ())
              | _ ->
                  Hashtbl.replace engine.unacked (a, seq) (payload, tries + 1);
                  engine.retransmits <- engine.retransmits + 1;
                  engine.sent <- engine.sent + 1;
                  engine.volume <- engine.volume + max 1 (engine.weight payload);
                  temit engine (Trace.Send { src; dst });
                  temit engine (Trace.Retransmit { src; dst });
                  transmit_rdata engine src dst seq payload;
                  let interval =
                    Float.min cfg.Reliable.max_interval (interval *. cfg.Reliable.backoff)
                  in
                  schedule engine (time +. interval) (Rto { src; dst; seq; interval })))
  done;
  let dropped, duplicated, corruptions =
    match session with
    | None -> (0, 0, 0)
    | Some s -> (Fault.dropped s, Fault.duplicated s, Fault.corruptions s)
  in
  let finish =
    match (session, reliable) with
    | None, None when not engine.used_timers ->
        engine.clock  (* every event was a user delivery *)
    | _ -> engine.last_user
  in
  let stats =
    Stats.make
      ~rounds:(int_of_float (ceil finish))
      ~messages:engine.sent ~volume:engine.volume ~dropped ~duplicated
      ~retransmits:engine.retransmits ~gave_up:engine.gave_up ~corruptions ()
  in
  Metrics.add_stats metrics stats;
  (states, stats)
