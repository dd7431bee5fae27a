open Fdlsp_graph

type 'msg outcome = Continue of (int * 'msg) list | Halt of (int * 'msg) list

type ('state, 'msg) step =
  round:int -> int -> 'state -> (int * 'msg) list -> 'state * 'msg outcome

exception Did_not_terminate of int

(* The order of [List.sort compare] on the pairs, spelled out so the
   sender ids compare as ints and the payloads are compared only
   between messages from one sender. *)
let by_sender (s1, p1) (s2, p2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c else compare p1 p2

let sort_inbox inbox = List.sort by_sender inbox

let run ?max_rounds ?(weight = fun _ -> 1) ?faults ?corrupt ?blip ?(trace = Trace.null)
    ?(metrics = Metrics.null) ?(spans = Span.null) g ~init ~step =
  let metrics = Metrics.with_label metrics "engine" "sync" in
  let mtr = Metrics.enabled metrics in
  let n = Graph.n g in
  let max_rounds = match max_rounds with Some r -> r | None -> 10_000 + (100 * n) in
  let session =
    match faults with
    | Some p when not (Fault.is_none p) -> Some (Fault.start p)
    | _ -> None
  in
  let traced = Trace.enabled trace in
  (* crash/recovery boundaries from the plan, emitted (at plan time) once
     the round clock crosses them; ascending so alternation is preserved *)
  let boundaries =
    if not traced then ref []
    else
      match faults with
      | Some p ->
          let evs =
            List.concat_map
              (fun c ->
                let crash = (c.Fault.at, Trace.Crash c.Fault.node) in
                match c.Fault.until with
                | None -> [ crash ]
                | Some u -> [ crash; (u, Trace.Recover c.Fault.node) ])
              (Fault.crashes p)
          in
          ref (List.sort Trace.compare_boundary evs)
      | None -> ref []
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
  let initial = Array.init n init in
  let states = Array.map fst initial in
  let live = Array.map snd initial in
  (* state blips from the plan, applied in (time, node) order once the
     round clock crosses them; the hook rewrites the victim's state *)
  let pending_blips =
    ref (match faults with Some p -> Fault.blips p | None -> [])
  in
  let apply_blips now =
    let rec loop () =
      match !pending_blips with
      | b :: rest when b.Fault.b_at <= now ->
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
  let inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  let next_inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  (* reordered copies skip one round of the FIFO discipline *)
  let late_inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  let messages = ref 0 in
  let volume = ref 0 in
  let rounds = ref 0 in
  let any_live () =
    match session with
    | None -> Array.exists Fun.id live
    | Some s ->
        (* a node that is crashed with no recovery ahead can never halt;
           don't wait for it *)
        let t = float_of_int (!rounds + 1) in
        let pending = ref false in
        Array.iteri
          (fun v alive -> if alive && not (Fault.dead_forever s v t) then pending := true)
          live;
        !pending
  in
  let corrupt_payload payload =
    match corrupt with Some f -> f payload | None -> payload
  in
  let deliver ~now v payload (dest : int) =
    match session with
    | None -> !next_inboxes.(dest) <- (v, payload) :: !next_inboxes.(dest)
    | Some s ->
        let verdict = Fault.transmit s ~src:v ~dst:dest in
        if traced then begin
          if verdict.Fault.copies = 0 then
            Trace.emit trace ~t:now (Trace.Drop { src = v; dst = dest })
          else if verdict.Fault.copies > 1 then
            Trace.emit trace ~t:now (Trace.Duplicate { src = v; dst = dest })
        end;
        for _ = 1 to verdict.Fault.copies do
          let payload = if verdict.Fault.corrupted then corrupt_payload payload else payload in
          let buffer = if verdict.Fault.reordered then late_inboxes else next_inboxes in
          !buffer.(dest) <- (v, payload) :: !buffer.(dest)
        done
  in
  (* one closure, reused every round, so the instrumented path does not
     allocate per round; with [Span.null] the wrapper is exactly a call *)
  let do_round () =
    incr rounds;
    let now = float_of_int !rounds in
    if traced then begin
      Trace.emit trace ~t:now (Trace.Round_start !rounds);
      emit_boundaries now
    end;
    apply_blips now;
    let msgs_at_round_start = !messages in
    for v = 0 to n - 1 do
      if live.(v) then begin
        match session with
        | Some s when Fault.crashed s v now ->
            (* crashed: messages addressed to it are lost, it does not step *)
            List.iter
              (fun (src, _) ->
                Fault.count_drop s;
                if traced then Trace.emit trace ~t:now (Trace.Drop { src; dst = v }))
              !inboxes.(v)
        | _ ->
            (* deliver in sender order for determinism *)
            let inbox = sort_inbox !inboxes.(v) in
            if mtr then
              Metrics.observe metrics Metrics.Name.inbox_depth
                (float_of_int (List.length inbox));
            if traced then
              List.iter
                (fun (src, _) -> Trace.emit trace ~t:now (Trace.Recv { src; dst = v }))
                inbox;
            let state, outcome = step ~round:!rounds v states.(v) inbox in
            states.(v) <- state;
            let outgoing =
              match outcome with
              | Continue msgs -> msgs
              | Halt msgs ->
                  live.(v) <- false;
                  msgs
            in
            List.iter
              (fun (dest, payload) ->
                if not (Graph.mem_edge g v dest) then
                  invalid_arg
                    (Printf.sprintf "Sync.run: node %d sent to non-neighbor %d" v dest);
                incr messages;
                volume := !volume + max 1 (weight payload);
                if traced then Trace.emit trace ~t:now (Trace.Send { src = v; dst = dest });
                deliver ~now v payload dest)
              outgoing
      end
    done;
    if mtr then
      Metrics.sample metrics Metrics.Name.round_messages ~x:now
        (float_of_int (!messages - msgs_at_round_start));
    if traced then Trace.emit trace ~t:now (Trace.Round_end !rounds);
    (* rotate: next -> current, late -> next *)
    let consumed = !inboxes in
    inboxes := !next_inboxes;
    next_inboxes := !late_inboxes;
    Array.fill consumed 0 n [];
    late_inboxes := consumed
  in
  Span.span spans "sync.run" (fun () ->
      while any_live () do
        if !rounds >= max_rounds then raise (Did_not_terminate max_rounds);
        Span.span spans "sync.round" do_round
      done);
  let dropped, duplicated, corruptions =
    match session with
    | None -> (0, 0, 0)
    | Some s -> (Fault.dropped s, Fault.duplicated s, Fault.corruptions s)
  in
  let stats =
    Stats.make ~rounds:!rounds ~messages:!messages ~volume:!volume ~dropped ~duplicated
      ~corruptions ()
  in
  Metrics.add_stats metrics stats;
  (states, stats)
