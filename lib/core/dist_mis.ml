open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

let src = Logs.Src.create "fdlsp.dist_mis" ~doc:"DistMIS (Algorithm 1)"

module Log = (val Logs.src_log src : Logs.LOG)

type variant = Gbg | General

type result = {
  schedule : Schedule.t;
  stats : Stats.t;
  outer_iters : int;
  inner_iters : int;
}

let hop_distance = function Gbg -> 3 | General -> 2

(* --- the 3-round gather/color phase ------------------------------- *)

type phase_state = {
  mutable table : (Arc.id * int) array; (* the colors this node has gathered *)
  mutable assigned : (Arc.id * int) list; (* this node's new colors *)
}

(* The gather and coloring steps work in an arc-indexed table and a
   conflict scratch, each single-use at a time; the parallel engine
   steps nodes on several domains at once, so each domain caches its
   own pair, keyed (by physical equality — one cached entry, not a
   leak-prone table) off the graph it was built over.  [run] drops the
   calling domain's entry when it returns, so no arc-sized scratch
   outlives the call; worker domains end with their engine run. *)
type scratch = { conflict : Conflict.scratch; view : Arc.Dense.t }

let scratch_key : (Graph.t * scratch) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let domain_scratch g =
  match Domain.DLS.get scratch_key with
  | Some (g', s) when g' == g -> s
  | _ ->
      let s = { conflict = Conflict.scratch g; view = Arc.Dense.create g } in
      Domain.DLS.set scratch_key (Some (g, s));
      s

(* Colors the given arcs greedily against [known], updating [known] as
   it goes so a node's own simultaneous picks stay consistent. *)
let greedy_assign ~scratch g known arcs =
  let color_of = Arc.Dense.get known in
  List.filter_map
    (fun a ->
      if Arc.Dense.mem known a then None
      else begin
        let c = Conflict.first_fit ~scratch g a color_of in
        Arc.Dense.replace known a c;
        Some (a, c)
      end)
    arcs

(* Hop distance (0, 1, 2 or 3=far) to the nearest chosen node, by
   multi-source BFS.  Non-chosen nodes learn their distance to the
   nearest secondary-MIS winner for free during the competition relay,
   so scoping the gather to the 2-hop halo of the winners is local
   knowledge, not an oracle. *)
let halo g chosen =
  let dist = Array.make (Graph.n g) 3 in
  let q = Queue.create () in
  Array.iteri
    (fun v c ->
      if c then begin
        dist.(v) <- 0;
        Queue.add v q
      end)
    chosen;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if dist.(v) < 2 then
      Graph.iter_neighbors g v (fun w ->
          if dist.(w) = 3 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
  done;
  dist

let color_phase ~engine ?(trace = Trace.null) ?(metrics = Metrics.null) g sched ~chosen
    ~outgoing_only =
  let dist = halo g chosen in
  let own_table v =
    let out = ref [] in
    Arc.iter_incident g v (fun a ->
        let c = Schedule.get sched a in
        if c >= 0 then out := (a, c) :: !out);
    Array.of_list !out
  in
  (* nodes beyond the halo never step, so they share one empty state *)
  let idle = { table = [||]; assigned = [] } in
  let init v =
    if dist.(v) > 2 then (idle, false)
    else ({ table = (if dist.(v) <= 1 then own_table v else [||]); assigned = [] }, true)
  in
  let send_to g v payload ~keep =
    Graph.fold_neighbors g v (fun acc w -> if keep w then (w, payload) :: acc else acc) []
  in
  (* the node's table merged with every table in its inbox; tables merge
     as sets, and every copy of an arc's color agrees (a color is read
     off the schedule, which this phase only writes after the run) *)
  let gather state inbox =
    let view = (domain_scratch g).view in
    Arc.Dense.clear view;
    Arc.Dense.add_array view state.table;
    List.iter (fun (_, table) -> Arc.Dense.add_array view table) inbox;
    view
  in
  let step ~round v state inbox =
    match round with
    | 1 ->
        (* halo nodes push their tables toward the winners' neighbors
           (within distance 1, [init] already built the table) *)
        let own = if dist.(v) <= 1 then state.table else own_table v in
        (state, Sync.Continue (send_to g v own ~keep:(fun w -> dist.(w) <= 1)))
    | 2 ->
        (* only winners and their neighbors need the merged table: the
           neighbors forward it to their winner, the winners color with it *)
        if dist.(v) <= 1 then begin
          state.table <- Arc.Dense.to_array (gather state inbox);
          (state, Sync.Continue (send_to g v state.table ~keep:(fun w -> chosen.(w))))
        end
        else (state, Sync.Continue [])
    | _ ->
        if chosen.(v) then begin
          let targets = ref [] in
          if outgoing_only then Arc.iter_out g v (fun a -> targets := a :: !targets)
          else Arc.iter_incident g v (fun a -> targets := a :: !targets);
          let known = gather state inbox in
          state.assigned <-
            greedy_assign ~scratch:(domain_scratch g).conflict g known (List.rev !targets);
          (* the announce broadcast of the assignment *)
          ( state,
            Sync.Halt (send_to g v (Array.of_list state.assigned) ~keep:(fun _ -> true)) )
        end
        else (state, Sync.Halt [])
  in
  let states, stats = engine.Reliable.run ~weight:Array.length ~metrics g ~init ~step in
  let t_done = float_of_int stats.Stats.rounds in
  let colored = ref 0 in
  Array.iteri
    (fun v s ->
      List.iter
        (fun (a, c) ->
          if Schedule.is_colored sched a then
            invalid_arg "Dist_mis: simultaneous recoloring detected";
          Schedule.set sched a c;
          incr colored;
          Trace.emit trace ~t:t_done (Trace.Color { node = v; arc = a; slot = c }))
        s.assigned)
    states;
  Metrics.inc ~by:!colored metrics Metrics.Name.colors;
  stats

(* --- the full algorithm ------------------------------------------- *)

let run ?faults ?reliable ?engine ?(trace = Trace.null) ?(metrics = Metrics.null)
    ?(spans = Span.null) ~mis ~variant g =
  let engine =
    match engine with
    | Some e -> e
    | None -> Reliable.runner ?faults ?config:reliable ~trace ~spans ()
  in
  let metrics =
    Metrics.with_label
      (Metrics.with_label metrics "algo" "distmis")
      "variant"
      (match variant with Gbg -> "gbg" | General -> "general")
  in
  let traced = Trace.enabled trace in
  let phase label scale = if traced then Trace.emit trace ~t:0. (Trace.Phase { label; scale }) in
  let n = Graph.n g in
  let dist = hop_distance variant in
  let outgoing_only = variant = General in
  let sched = Schedule.make g in
  let stats = ref Stats.zero in
  let outer = ref 0 and inner = ref 0 in
  let active = Array.make n true in
  let any arr = Array.exists Fun.id arr in
  (* one sink per phase label: the engine stamps each run's counters
     with it, so the registry carries the same per-phase breakdown the
     trace summary derives after the fact *)
  let m_mis = Metrics.with_label metrics "phase" "mis" in
  let m_sec = Metrics.with_scale dist (Metrics.with_label metrics "phase" "secondary-mis") in
  let m_color = Metrics.with_label metrics "phase" "color" in
  Span.span spans "distmis" @@ fun () ->
  Fun.protect ~finally:(fun () -> Domain.DLS.set scratch_key None) @@ fun () ->
  while any active do
    incr outer;
    phase "mis" 1;
    let s, mis_stats =
      Span.span spans "distmis.mis" (fun () ->
          Mis.compute ~engine ~metrics:m_mis ~algo:mis g ~active)
    in
    Log.debug (fun m ->
        m "outer %d: |S| = %d (%d rounds)" !outer
          (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s)
          mis_stats.Stats.rounds);
    if traced then
      Array.iteri
        (fun v m ->
          if m then
            Trace.emit trace ~t:(float_of_int mis_stats.Stats.rounds) (Trace.Mis_join v))
        s;
    if Metrics.enabled metrics then
      Metrics.inc
        ~by:(Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s)
        m_mis Metrics.Name.mis_joins;
    stats := Stats.add !stats mis_stats;
    let remaining = Array.copy s in
    while any remaining do
      incr inner;
      let vg, back = Traversal.virtual_graph g remaining ~dist in
      let vactive = Array.make (Graph.n vg) true in
      phase "secondary-mis" dist;
      let s_virtual, sec_stats =
        Span.span spans "distmis.secondary-mis" (fun () ->
            Mis.compute ~engine ~metrics:m_sec ~algo:mis vg ~active:vactive)
      in
      stats := Stats.add !stats (Stats.scale_rounds dist sec_stats);
      let chosen = Array.make n false in
      Array.iteri (fun i v -> if s_virtual.(i) then chosen.(v) <- true) back;
      phase "color" 1;
      let phase_stats =
        Span.span spans "distmis.color" (fun () ->
            color_phase ~engine ~trace ~metrics:m_color g sched ~chosen ~outgoing_only)
      in
      Log.debug (fun m ->
          m "inner %d: %d winners colored" !inner
            (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 chosen));
      stats := Stats.add !stats phase_stats;
      Array.iteri (fun v c -> if c then remaining.(v) <- false) chosen
    done;
    Array.iteri (fun v in_s -> if in_s then active.(v) <- false) s
  done;
  (* Safety net for modelling gaps rather than a code path we expect to
     take: every arc must be colored once each node has passed through a
     secondary MIS. *)
  assert (Schedule.is_complete sched || Graph.m g = 0);
  if Metrics.enabled metrics then begin
    Metrics.inc ~by:!outer metrics Metrics.Name.outer_iters;
    Metrics.inc ~by:!inner metrics Metrics.Name.inner_iters;
    Metrics.gauge metrics Metrics.Name.slots (float_of_int (Schedule.num_slots sched))
  end;
  { schedule = sched; stats = !stats; outer_iters = !outer; inner_iters = !inner }
