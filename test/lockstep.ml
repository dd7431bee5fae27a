open Fdlsp_graph
open Fdlsp_sim

(* One frame per (channel, logical round), mirroring Reliable.run_sync's
   synchronizer — but the channel here is the asynchronous engine's
   reliable FIFO transport, so no ARQ is needed. *)
type 'msg frame = { lround : int; payloads : 'msg list; halting : bool }

type ('state, 'msg) lnode = {
  mutable ustate : 'state;
  participates : bool;
  mutable ulive : bool;
  mutable lround : int;  (* next logical round to execute *)
  got : (int * int, 'msg list) Hashtbl.t;  (* (nbr, lround) -> payload batch *)
  peer_halt : (int, int) Hashtbl.t;  (* nbr -> its halting round *)
}

let run_async ?max_rounds ?(weight = fun _ -> 1) ?(delay = Async.Unit) ?(blips = []) ?blip
    ?(trace = Trace.null) ?(metrics = Metrics.null) ?(spans = Span.null) g ~init ~step =
  (* claim the engine label before Async.run applies its own default *)
  let metrics = Metrics.with_label metrics "engine" "lockstep" in
  let n = Graph.n g in
  let nodes =
    Array.init n (fun v ->
        let ustate, participates = init v in
        {
          ustate;
          participates;
          ulive = participates;
          lround = 1;
          got = Hashtbl.create 8;
          peer_halt = Hashtbl.create 4;
        })
  in
  let expected v w r =
    nodes.(w).participates
    &&
    match Hashtbl.find_opt nodes.(v).peer_halt w with Some h -> h >= r | None -> true
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
  let advance ctx v =
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
    (* deliver in sender order, exactly like Sync.run *)
    let inbox = List.sort compare inbox in
    let state, outcome = step ~round:r v nd.ustate inbox in
    nd.ustate <- state;
    let outgoing, halting =
      match outcome with Sync.Continue m -> (m, false) | Sync.Halt m -> (m, true)
    in
    List.iter
      (fun (dest, _) ->
        if not (Graph.mem_edge g v dest) then
          invalid_arg
            (Printf.sprintf "Lockstep.run_async: node %d sent to non-neighbor %d" v dest))
      outgoing;
    if halting then nd.ulive <- false;
    nd.lround <- r + 1;
    Graph.iter_neighbors g v (fun w ->
        let peer_consumes =
          nodes.(w).participates
          && match Hashtbl.find_opt nd.peer_halt w with Some h -> h > r | None -> true
        in
        if peer_consumes then begin
          let payloads =
            List.filter_map (fun (d, m) -> if d = w then Some m else None) outgoing
          in
          Async.send ctx w { lround = r; payloads; halting }
        end)
  in
  let cascade ctx v =
    while can_advance v do
      advance ctx v
    done
  in
  let handler ctx () ~sender frame =
    let v = Async.self ctx in
    let nd = nodes.(v) in
    if frame.halting then Hashtbl.replace nd.peer_halt sender frame.lround;
    (* a frame is consumed at most once: the FIFO transport never
       duplicates, so no dedup beyond the table replace is needed *)
    if frame.lround >= nd.lround - 1 && not (Hashtbl.mem nd.got (sender, frame.lround))
    then Hashtbl.replace nd.got (sender, frame.lround) frame.payloads;
    cascade ctx v;
    ()
  in
  let starts =
    List.filter_map
      (fun v ->
        if nodes.(v).participates then
          Some
            ( v,
              fun ctx () ->
                cascade ctx v;
                () )
        else None)
      (List.init n Fun.id)
  in
  let frame_weight f =
    max 1 (List.fold_left (fun acc m -> acc + max 1 (weight m)) 0 f.payloads)
  in
  let max_events =
    (* one frame per channel per logical round, plus slack *)
    Option.map (fun r -> (r + 1) * ((2 * Graph.m g) + n + 1)) max_rounds
  in
  (* Blips ride the asynchronous engine's own clock: the underlying
     engine's states are unit, so the hook reaches back into the
     synchronizer's node table by side effect.  The plan carries only
     blips, so the channel stays perfect and execution is unchanged. *)
  let faults = match blips with [] -> None | bs -> Some (Fault.make ~blips:bs ()) in
  let ablip =
    match blip with
    | None -> None
    | Some f ->
        Some
          (fun b () ->
            let nd = nodes.(b.Fault.b_node) in
            nd.ustate <- f b nd.ustate)
  in
  let _, stats =
    Span.span spans "lockstep.run" (fun () ->
        Async.run ?max_events ~delay ~weight:frame_weight ?faults ?blip:ablip ~trace
          ~metrics ~spans g
          ~init:(fun _ -> ())
          ~starts ~handler)
  in
  (Array.map (fun nd -> nd.ustate) nodes, stats)

let runner ?delay ?(trace = Trace.null) ?(blips = []) ?(spans = Span.null) () =
  {
    Reliable.run =
      (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
        run_async ?max_rounds ?weight ?delay ~blips ?blip ~trace ~spans ?metrics g ~init
          ~step);
    faulty = false;
  }
