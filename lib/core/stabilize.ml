open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

let src = Logs.Src.create "fdlsp.stabilize" ~doc:"self-stabilizing schedule maintenance"

module Log = (val Logs.src_log src : Logs.LOG)

(* A node's entire protocol state is its color view: one slot per arc of
   the graph, -1 = unknown.  The entries for the node's own out-arcs are
   authoritative (they ARE the schedule, as far as this node knows); the
   rest is its cached 2-hop view, refreshed by heartbeats.  Keeping the
   whole state in one flat array is exactly what makes "arbitrary state
   corruption" meaningful: a blip can flip any cell. *)
type state = { view : int array }

type report = {
  rounds : int;
  converged : bool;
  corruptions : int;
  detects : int;
  recolorings : int;
  recolored_arcs : int;
  last_repair_round : int;
  rounds_to_stabilize : int;
  initial_slots : int;
  final_slots : int;
  plan_seed : int;
  plan_crashes : int;
  plan_blips : int;
  schedule : Schedule.t;
  stats : Stats.t;
}

let default_settle = 24

let run ?(faults = Fault.none) ?reliable ?engine ?(trace = Trace.null)
    ?(metrics = Metrics.null) ?(spans = Span.null) ?rounds ?(settle = default_settle) g
    sched0 =
  let metrics =
    Metrics.with_label (Metrics.with_label metrics "algo" "stabilize") "phase" "stabilize"
  in
  let mtr = Metrics.enabled metrics in
  let n = Graph.n g in
  let narcs = Arc.count g in
  if Array.length (Schedule.colors sched0) <> narcs then
    invalid_arg "Stabilize.run: schedule built over a different graph";
  let blips = Fault.blips faults in
  let horizon =
    match rounds with
    | Some r ->
        if r < 1 then invalid_arg "Stabilize.run: rounds must be >= 1";
        r
    | None ->
        (* enough heartbeats after the last planned corruption for views
           to refresh and repair chains to settle *)
        let last = List.fold_left (fun acc b -> Float.max acc b.Fault.b_at) 0. blips in
        int_of_float (Float.ceil last) + max 3 settle
  in
  let owner = Array.init narcs (fun a -> Arc.tail g a) in
  let own = Array.make n [||] in
  Array.iteri
    (fun v _ ->
      let acc = ref [] in
      Arc.iter_out g v (fun a -> acc := a :: !acc);
      own.(v) <- Array.of_list (List.sort compare !acc))
    own;
  let conflicts =
    let scratch = Conflict.scratch g in
    Array.init narcs (fun a -> Array.of_list (Conflict.conflicting ~scratch g a))
  in
  let c0 = Schedule.colors sched0 in
  (* ground truth: the union of every owner's authoritative entries,
     updated by blips and repairs as they happen *)
  let mirror = Array.copy c0 in
  let traced = Trace.enabled trace in
  if traced then begin
    Trace.emit trace ~t:0. (Trace.Phase { label = "stabilize"; scale = 1 });
    Array.iteri
      (fun a c ->
        if c >= 0 then Trace.emit trace ~t:0. (Trace.Color { node = owner.(a); arc = a; slot = c }))
      c0
  end;
  let detects = ref 0 in
  let recolors = ref 0 in
  let recolored = Array.make narcs false in
  let last_repair = ref 0 in
  let applied = ref 0 in
  let last_blip = ref 0. in
  (* --- the corruption hook, handed to the engine ------------------- *)
  let blip_bound = max 2 (Schedule.max_color sched0 + 2) in
  let blip_rng = Random.State.make [| 0xF11b; Fault.seed faults |] in
  let blip_hook (b : Fault.blip) st =
    let v = b.Fault.b_node in
    incr applied;
    last_blip := Float.max !last_blip b.Fault.b_at;
    (match b.Fault.b_kind with
    | Fault.Flip_slot ->
        let arcs = own.(v) in
        if Array.length arcs > 0 then begin
          let a = arcs.(Random.State.int blip_rng (Array.length arcs)) in
          let s = Random.State.int blip_rng blip_bound in
          let s = if s = st.view.(a) then s + 1 else s in
          st.view.(a) <- s;
          mirror.(a) <- s;
          Log.debug (fun m -> m "blip t=%g: node %d arc %d flipped to slot %d" b.Fault.b_at v a s);
          if traced then
            Trace.emit trace ~t:b.Fault.b_at (Trace.Corrupt_state { node = v; arc = a; slot = s })
        end
    | Fault.Scramble_view ->
        (* overwrite a handful of non-authoritative cells: the node's
           beliefs about other owners' colors, not the schedule itself *)
        for _ = 1 to 4 do
          let a = Random.State.int blip_rng (max 1 narcs) in
          let s = Random.State.int blip_rng blip_bound in
          if narcs > 0 && owner.(a) <> v then st.view.(a) <- s
        done;
        Log.debug (fun m -> m "blip t=%g: node %d view scrambled" b.Fault.b_at v);
        if traced then
          Trace.emit trace ~t:b.Fault.b_at (Trace.Corrupt_state { node = v; arc = -1; slot = -1 })
    | Fault.Stale_phase ->
        (* a desynced frame clock: every slot the node believes it owns
           is off by one — the state-level image of a node transmitting
           one slot late after drifting past the resync threshold *)
        Array.iter
          (fun a ->
            if st.view.(a) >= 0 then begin
              let s = st.view.(a) + 1 in
              st.view.(a) <- s;
              mirror.(a) <- s;
              if traced then
                Trace.emit trace ~t:b.Fault.b_at
                  (Trace.Corrupt_state { node = v; arc = a; slot = s })
            end)
          own.(v);
        Log.debug (fun m -> m "blip t=%g: node %d frame phase stale" b.Fault.b_at v));
    st
  in
  (* --- the heartbeat protocol -------------------------------------- *)
  let init v =
    let view = Array.make narcs (-1) in
    Array.iter (fun a -> view.(a) <- c0.(a)) own.(v);
    ({ view }, true)
  in
  let step ~round v st inbox =
    (* 1. integrate heartbeats.  An entry (a, c) from sender s is
       authoritative when s owns a (always accepted); a relayed entry is
       accepted only when a's owner is at distance >= 2 (not us, not a
       neighbor) — for owners we hear directly, a possibly-stale relay
       must never shadow the owner's own report. *)
    List.iter
      (fun (s, payload) ->
        List.iter
          (fun (a, c) ->
            let o = owner.(a) in
            if o = s then st.view.(a) <- c
            else if o <> v && not (Graph.mem_edge g v o) then st.view.(a) <- c)
          payload)
      inbox;
    (* 2. detect and repair own arcs, in arc order.  An arc must move
       when it is uncolored or shares its color with a conflicting arc
       of higher priority — lower (owner, arc) wins and keeps its slot,
       so the globally smallest conflicting arc never moves and chains
       resolve toward higher ids: no livelock. *)
    Array.iter
      (fun a ->
        let c = st.view.(a) in
        let must_move =
          c < 0
          || Array.exists
               (fun b -> st.view.(b) = c && (owner.(b), b) < (v, a))
               conflicts.(a)
        in
        if must_move then begin
          incr detects;
          if traced then Trace.emit trace ~t:(float_of_int round) (Trace.Detect { node = v; arc = a });
          let forbidden = Hashtbl.create 16 in
          Array.iter
            (fun b ->
              let cb = st.view.(b) in
              if cb >= 0 then Hashtbl.replace forbidden cb ())
            conflicts.(a);
          let rec first c = if Hashtbl.mem forbidden c then first (c + 1) else c in
          let c' = first 0 in
          st.view.(a) <- c';
          mirror.(a) <- c';
          incr recolors;
          recolored.(a) <- true;
          last_repair := max !last_repair round;
          (* cumulative repair count over the round clock: the registry's
             timeline of how fast the repair wave settles *)
          if mtr then
            Metrics.sample metrics Metrics.Name.recolor_activity ~x:(float_of_int round)
              (float_of_int !recolors);
          Log.debug (fun m -> m "round %d: node %d recolored arc %d -> slot %d" round v a c');
          if traced then
            Trace.emit trace ~t:(float_of_int round) (Trace.Recolor { node = v; arc = a; slot = c' })
        end)
      own.(v);
    (* 3. heartbeat: own entries plus 1-hop relays, giving every
       receiver a 2-hop color view — enough to see every Definition-2
       conflict of its own arcs. *)
    if round >= horizon then (st, Sync.Halt [])
    else begin
      let payload =
        let acc = ref [] in
        Graph.iter_neighbors g v (fun w ->
            Array.iter
              (fun a -> if st.view.(a) >= 0 then acc := (a, st.view.(a)) :: !acc)
              own.(w));
        Array.iter (fun a -> if st.view.(a) >= 0 then acc := (a, st.view.(a)) :: !acc) own.(v);
        !acc
      in
      let out = Graph.fold_neighbors g v (fun acc w -> (w, payload) :: acc) [] in
      (st, Sync.Continue out)
    end
  in
  let engine =
    match engine with
    | Some e -> e
    | None -> Reliable.runner ~faults ?config:reliable ~trace ~spans ()
  in
  let _, stats =
    Span.span spans "stabilize" (fun () ->
        engine.Reliable.run ~blip:blip_hook ~weight:List.length ~metrics g ~init ~step)
  in
  let schedule = Schedule.of_colors g mirror in
  let converged = Schedule.valid schedule in
  if mtr then begin
    Metrics.inc ~by:!detects metrics Metrics.Name.detects;
    Metrics.inc ~by:!recolors metrics Metrics.Name.recolorings;
    Metrics.inc ~by:!applied metrics "fdlsp_blips_applied_total";
    Metrics.gauge metrics "fdlsp_initial_slots"
      (float_of_int (Schedule.num_slots sched0));
    Metrics.gauge metrics Metrics.Name.slots (float_of_int (Schedule.num_slots schedule))
  end;
  let rounds_to_stabilize =
    if !applied = 0 || !last_repair < int_of_float (Float.ceil !last_blip) then 0
    else !last_repair - int_of_float (Float.ceil !last_blip) + 1
  in
  Log.info (fun m ->
      m "stabilize: %d rounds, %d corruptions, %d recolorings, converged=%b" stats.Stats.rounds
        !applied !recolors converged);
  {
    rounds = stats.Stats.rounds;
    converged;
    corruptions = !applied;
    detects = !detects;
    recolorings = !recolors;
    recolored_arcs = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 recolored;
    last_repair_round = !last_repair;
    rounds_to_stabilize;
    initial_slots = Schedule.num_slots sched0;
    final_slots = Schedule.num_slots schedule;
    plan_seed = Fault.seed faults;
    plan_crashes = List.length (Fault.crashes faults);
    plan_blips = List.length blips;
    schedule;
    stats;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "rounds=%d converged=%b corruptions=%d detects=%d recolorings=%d recolored_arcs=%d \
     rounds_to_stabilize=%d slots=%d->%d"
    r.rounds r.converged r.corruptions r.detects r.recolorings r.recolored_arcs
    r.rounds_to_stabilize r.initial_slots r.final_slots

let report_to_json r =
  Printf.sprintf
    {|{"rounds":%d,"converged":%b,"corruptions":%d,"detects":%d,"recolorings":%d,"recolored_arcs":%d,"last_repair_round":%d,"rounds_to_stabilize":%d,"initial_slots":%d,"final_slots":%d,"slot_drift":%d,"plan":{"seed":%d,"crashes":%d,"blips":%d},"stats":%s}|}
    r.rounds r.converged r.corruptions r.detects r.recolorings r.recolored_arcs
    r.last_repair_round r.rounds_to_stabilize r.initial_slots r.final_slots
    (r.final_slots - r.initial_slots) r.plan_seed r.plan_crashes r.plan_blips
    (Stats.to_json r.stats)
