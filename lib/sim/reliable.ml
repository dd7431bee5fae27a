open Fdlsp_graph

type config = {
  timeout : float;
  backoff : float;
  max_interval : float;
  max_retries : int option;
}

let default = { timeout = 4.; backoff = 2.; max_interval = 64.; max_retries = None }

let check_config c =
  if c.timeout < 1. then invalid_arg "Reliable: timeout must be >= 1";
  if c.backoff < 1. then invalid_arg "Reliable: backoff must be >= 1";
  if c.max_interval < c.timeout then invalid_arg "Reliable: max_interval below timeout"

(* One data frame per (channel, logical round): the round's payload
   batch, tagged with the round number (which doubles as the sequence
   number) and whether the sender halted on this round. *)
type 'msg frame =
  | Data of { lround : int; payloads : 'msg list; halting : bool }
  | Ack of int

type 'msg pending = {
  payloads : 'msg list;
  halting : bool;
  mutable next_tx : int;
  mutable interval : float;
  mutable tries : int;
}

type ('state, 'msg) rnode = {
  mutable ustate : 'state;
  participates : bool;
  mutable ulive : bool;  (* still executing logical rounds *)
  mutable lround : int;  (* next logical round to execute *)
  pending : (int * int, 'msg pending) Hashtbl.t;  (* (nbr, lround) -> unacked *)
  got : (int * int, 'msg list) Hashtbl.t;  (* (nbr, lround) -> payload batch *)
  peer_halt : (int, int) Hashtbl.t;  (* nbr -> its halting round *)
}

let run_sync ?max_rounds ?(weight = fun _ -> 1) ?(faults = Fault.none) ?(config = default)
    ?blip ?(trace = Trace.null) ?(metrics = Metrics.null) ?(spans = Span.null) g ~init
    ~step =
  let metrics = Metrics.with_label metrics "engine" "reliable" in
  let mtr = Metrics.enabled metrics in
  check_config config;
  let n = Graph.n g in
  let max_rounds = match max_rounds with Some r -> r | None -> 10_000 + (100 * n) in
  let session = Fault.start faults in
  let traced = Trace.enabled trace in
  let boundaries =
    if not traced then ref []
    else
      ref
        (List.sort Trace.compare_boundary
           (List.concat_map
              (fun c ->
                let crash = (c.Fault.at, Trace.Crash c.Fault.node) in
                match c.Fault.until with
                | None -> [ crash ]
                | Some u -> [ crash; (u, Trace.Recover c.Fault.node) ])
              (Fault.crashes faults)))
  in
  let emit_boundaries now =
    let rec loop () =
      match !boundaries with
      | (t, ev) :: rest when t <= now ->
          Trace.emit trace ~t ev;
          boundaries := rest;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let nodes =
    Array.init n (fun v ->
        let ustate, participates = init v in
        {
          ustate;
          participates;
          ulive = participates;
          lround = 1;
          pending = Hashtbl.create 8;
          got = Hashtbl.create 8;
          peer_halt = Hashtbl.create 4;
        })
  in
  (* state blips from the plan, applied at physical-round starts (blip
     times are physical here; the corrupted state is whatever logical
     round the victim has reached) *)
  let pending_blips = ref (Fault.blips faults) in
  let apply_blips now =
    let rec loop () =
      match !pending_blips with
      | b :: rest when b.Fault.b_at <= now ->
          pending_blips := rest;
          if b.Fault.b_node < n then begin
            Fault.count_blip session;
            match blip with
            | Some f ->
                let nd = nodes.(b.Fault.b_node) in
                nd.ustate <- f b nd.ustate
            | None -> ()
          end;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  (* physical delivery buffers: this round / next round / reordered (+2) *)
  let cur = ref (Array.make n []) in
  let nxt = ref (Array.make n []) in
  let late = ref (Array.make n []) in
  let messages = ref 0 and volume = ref 0 and retransmits = ref 0 in
  let gave_up = ref 0 in
  let p = ref 0 in
  let frame_volume = function
    | Ack _ -> 1
    | Data { payloads; _ } ->
        max 1 (List.fold_left (fun acc m -> acc + max 1 (weight m)) 0 payloads)
  in
  let xmit src dst frame =
    incr messages;
    volume := !volume + frame_volume frame;
    let verdict = Fault.transmit session ~src ~dst in
    if traced then begin
      let t = float_of_int !p in
      Trace.emit trace ~t (Trace.Send { src; dst });
      if verdict.Fault.copies = 0 then Trace.emit trace ~t (Trace.Drop { src; dst })
      else if verdict.Fault.copies > 1 then
        Trace.emit trace ~t (Trace.Duplicate { src; dst })
    end;
    for _ = 1 to verdict.Fault.copies do
      (* a corrupted copy fails its checksum on arrival: silently
         discarded, recovered by retransmission *)
      if verdict.Fault.corrupted then begin
        Fault.count_drop session;
        if traced then Trace.emit trace ~t:(float_of_int !p) (Trace.Drop { src; dst })
      end
      else begin
        let buf = if verdict.Fault.reordered then late else nxt in
        !buf.(dst) <- (src, frame) :: !buf.(dst)
      end
    done
  in
  let is_crashed v = Fault.crashed session v (float_of_int !p) in
  (* Does v still need a data frame (w, lround = r) before advancing? *)
  let expected v w r =
    nodes.(w).participates
    && match Hashtbl.find_opt nodes.(v).peer_halt w with Some h -> h >= r | None -> true
  in
  let can_advance v =
    let nd = nodes.(v) in
    nd.participates && nd.ulive
    && (nd.lround = 1
       || Graph.fold_neighbors g v
            (fun acc w ->
              acc
              && ((not (expected v w (nd.lround - 1)))
                 || Hashtbl.mem nd.got (w, nd.lround - 1)))
            true)
  in
  let advance v =
    let nd = nodes.(v) in
    let r = nd.lround in
    let inbox =
      if r = 1 then []
      else
        Graph.fold_neighbors g v
          (fun acc w ->
            match Hashtbl.find_opt nd.got (w, r - 1) with
            | Some payloads -> List.fold_left (fun acc m -> (w, m) :: acc) acc payloads
            | None -> acc)
          []
    in
    if r > 1 then Graph.iter_neighbors g v (fun w -> Hashtbl.remove nd.got (w, r - 1));
    (* deliver in sender order, exactly like the raw engine *)
    let inbox = Sync.sort_inbox inbox in
    let state, outcome = step ~round:r v nd.ustate inbox in
    nd.ustate <- state;
    let outgoing, halting =
      match outcome with Sync.Continue m -> (m, false) | Sync.Halt m -> (m, true)
    in
    List.iter
      (fun (dest, _) ->
        if not (Graph.mem_edge g v dest) then
          invalid_arg
            (Printf.sprintf "Reliable.run_sync: node %d sent to non-neighbor %d" v dest))
      outgoing;
    if halting then nd.ulive <- false;
    nd.lround <- r + 1;
    (* one frame per neighbor that will still consume round-r input
       (messages to halted or non-participating peers go into the void,
       as in the raw engine) *)
    Graph.iter_neighbors g v (fun w ->
        let peer_consumes =
          nodes.(w).participates
          && match Hashtbl.find_opt nd.peer_halt w with Some h -> h > r | None -> true
        in
        if peer_consumes then begin
          let payloads =
            List.filter_map (fun (d, m) -> if d = w then Some m else None) outgoing
          in
          Hashtbl.replace nd.pending (w, r)
            {
              payloads;
              halting;
              next_tx = !p + int_of_float (ceil config.timeout);
              interval = config.timeout;
              tries = 0;
            };
          xmit v w (Data { lround = r; payloads; halting })
        end)
  in
  let process v =
    let nd = nodes.(v) in
    let frames = List.rev !cur.(v) in
    if frames <> [] then
      if is_crashed v then
        List.iter
          (fun (w, _) ->
            Fault.count_drop session;
            if traced then
              Trace.emit trace ~t:(float_of_int !p) (Trace.Drop { src = w; dst = v }))
          frames
      else
        List.iter
          (fun (w, frame) ->
            if traced then
              Trace.emit trace ~t:(float_of_int !p) (Trace.Recv { src = w; dst = v });
            match frame with
            | Ack lr -> Hashtbl.remove nd.pending (w, lr)
            | Data { lround; payloads; halting } ->
                xmit v w (Ack lround);
                if halting then Hashtbl.replace nd.peer_halt w lround;
                (* stale (< lround already consumed) or duplicate frames
                   are re-acked but not buffered *)
                if lround >= nd.lround - 1 && not (Hashtbl.mem nd.got (w, lround)) then
                  Hashtbl.replace nd.got (w, lround) payloads)
          frames
  in
  let retransmit v =
    let nd = nodes.(v) in
    if (not (is_crashed v)) && Hashtbl.length nd.pending > 0 then begin
      let due =
        Hashtbl.fold
          (fun k pd acc -> if pd.next_tx <= !p then (k, pd) :: acc else acc)
          nd.pending []
      in
      let due = List.sort (fun ((a : int * int), _) (b, _) -> compare a b) due in
      List.iter
        (fun ((w, lr), pd) ->
          match config.max_retries with
          | Some budget when pd.tries >= budget ->
              Hashtbl.remove nd.pending (w, lr);
              incr gave_up;
              Fault.count_drop session;
              if traced then begin
                Trace.emit trace ~t:(float_of_int !p) (Trace.Give_up { src = v; dst = w });
                Trace.emit trace ~t:(float_of_int !p) (Trace.Drop { src = v; dst = w })
              end
          | _ ->
              pd.tries <- pd.tries + 1;
              incr retransmits;
              if traced then
                Trace.emit trace ~t:(float_of_int !p)
                  (Trace.Retransmit { src = v; dst = w });
              pd.interval <- Float.min config.max_interval (pd.interval *. config.backoff);
              pd.next_tx <- !p + int_of_float (ceil pd.interval);
              xmit v w (Data { lround = lr; payloads = pd.payloads; halting = pd.halting }))
        due
    end
  in
  let finished () =
    Array.for_all
      (fun nd -> (not nd.participates) || not nd.ulive)
      nodes
    ||
    (* everything still running is a corpse that will never recover *)
    let t = float_of_int (!p + 1) in
    let stuck = ref true in
    Array.iteri
      (fun v nd ->
        if nd.participates && nd.ulive && not (Fault.dead_forever session v t) then
          stuck := false)
      nodes;
    !stuck
  in
  (* one closure reused every physical round, as in [Sync.run] *)
  let do_round () =
    incr p;
    if traced then begin
      Trace.emit trace ~t:(float_of_int !p) (Trace.Round_start !p);
      emit_boundaries (float_of_int !p)
    end;
    apply_blips (float_of_int !p);
    let msgs_at_round_start = !messages in
    for v = 0 to n - 1 do
      process v
    done;
    (* a node may advance several logical rounds if frames were buffered
       ahead while it waited on a slow neighbor *)
    let progress = ref true in
    while !progress do
      progress := false;
      for v = 0 to n - 1 do
        if can_advance v && not (is_crashed v) then begin
          advance v;
          progress := true
        end
      done
    done;
    for v = 0 to n - 1 do
      retransmit v
    done;
    if mtr then begin
      Metrics.sample metrics Metrics.Name.round_messages ~x:(float_of_int !p)
        (float_of_int (!messages - msgs_at_round_start));
      let unacked =
        Array.fold_left (fun acc nd -> acc + Hashtbl.length nd.pending) 0 nodes
      in
      Metrics.observe metrics Metrics.Name.pending_frames (float_of_int unacked)
    end;
    if traced then Trace.emit trace ~t:(float_of_int !p) (Trace.Round_end !p);
    let consumed = !cur in
    cur := !nxt;
    nxt := !late;
    Array.fill consumed 0 n [];
    late := consumed
  in
  Span.span spans "reliable.run" (fun () ->
      while not (finished ()) do
        if !p >= max_rounds then raise (Sync.Did_not_terminate max_rounds);
        Span.span spans "reliable.round" do_round
      done);
  let stats =
    Stats.make ~rounds:!p ~messages:!messages ~volume:!volume
      ~dropped:(Fault.dropped session) ~duplicated:(Fault.duplicated session)
      ~retransmits:!retransmits ~gave_up:!gave_up
      ~corruptions:(Fault.corruptions session) ()
  in
  Metrics.add_stats metrics stats;
  (Array.map (fun nd -> nd.ustate) nodes, stats)

type sync_runner = {
  run :
    'state 'msg.
    ?max_rounds:int ->
    ?weight:('msg -> int) ->
    ?blip:(Fault.blip -> 'state -> 'state) ->
    ?metrics:Metrics.sink ->
    Graph.t ->
    init:(int -> 'state * bool) ->
    step:('state, 'msg) Sync.step ->
    'state array * Stats.t;
  faulty : bool;
}

let raw_runner =
  {
    run =
      (fun ?max_rounds ?weight ?blip:_ ?metrics g ~init ~step ->
        Sync.run ?max_rounds ?weight ?metrics g ~init ~step);
    faulty = false;
  }

let runner ?(faults = Fault.none) ?config ?(trace = Trace.null) ?(spans = Span.null) () =
  if Fault.is_none faults then
    if (not (Trace.enabled trace)) && not (Span.enabled spans) then raw_runner
    else
      {
        run =
          (fun ?max_rounds ?weight ?blip:_ ?metrics g ~init ~step ->
            Sync.run ?max_rounds ?weight ~trace ~spans ?metrics g ~init ~step);
        faulty = false;
      }
  else if Fault.lossless faults then
    (* blips only: the channel is clean, so the plain synchronous engine
       applies them without the ARQ layer's physical-round overhead *)
    {
      run =
        (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
          Sync.run ?max_rounds ?weight ~faults ?blip ~trace ~spans ?metrics g ~init
            ~step);
      faulty = false;
    }
  else
    {
      run =
        (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
          run_sync ?max_rounds ?weight ~faults ?config ?blip ~trace ~spans ?metrics g
            ~init ~step);
      faulty = true;
    }
