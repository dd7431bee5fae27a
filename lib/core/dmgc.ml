open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

let src = Logs.Src.create "fdlsp.dmgc" ~doc:"D-MGC baseline"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  schedule : Schedule.t;
  stats : Stats.t;
  base_colors : int;
  injected_edges : int;
}

(* Two same-colored matching edges, oriented: conflict iff the head of
   one is adjacent to the tail of the other (no shared endpoints in a
   matching). *)
let oriented_conflict g e1 d1 e2 d2 =
  let ends e d =
    let u, v = Graph.edge_endpoints g e in
    if d = 0 then (u, v) else (v, u)
  in
  let t1, h1 = ends e1 d1 and t2, h2 = ends e2 d2 in
  Graph.mem_edge g h1 t2 || Graph.mem_edge g h2 t1

(* Edges interact when some orientation combination conflicts, i.e. some
   adjacency exists between their endpoint pairs. *)
let interact g e1 e2 =
  let a, b = Graph.edge_endpoints g e1 and c, d = Graph.edge_endpoints g e2 in
  Graph.mem_edge g a c || Graph.mem_edge g a d || Graph.mem_edge g b c
  || Graph.mem_edge g b d

(* Backtracking orientation of one interaction component.  Components
   are small in practice (matching edges whose endpoints are adjacent);
   a decision cap keeps pathological classes bounded — on overflow we
   report failure and the caller defers an edge. *)
let try_orient g edges nbrs =
  let k = Array.length edges in
  let dir = Array.make k (-1) in
  let budget = ref 200_000 in
  let rec assign i =
    if i = k then true
    else begin
      decr budget;
      if !budget <= 0 then false
      else
        let ok d =
          List.for_all
            (fun j -> dir.(j) < 0 || not (oriented_conflict g edges.(i) d edges.(j) dir.(j)))
            nbrs.(i)
        in
        let attempt d =
          if ok d then begin
            dir.(i) <- d;
            if assign (i + 1) then true
            else begin
              dir.(i) <- -1;
              false
            end
          end
          else false
        in
        attempt 0 || attempt 1
    end
  in
  if assign 0 then Some (Array.copy dir) else None

let orient_class g class_edges =
  let edges = Array.of_list class_edges in
  let k = Array.length edges in
  (* interaction graph *)
  let nbrs = Array.make k [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if interact g edges.(i) edges.(j) then begin
        nbrs.(i) <- j :: nbrs.(i);
        nbrs.(j) <- i :: nbrs.(j)
      end
    done
  done;
  (* connected components of the interaction graph *)
  let comp = Array.make k (-1) in
  let ncomp = ref 0 in
  for i = 0 to k - 1 do
    if comp.(i) < 0 then begin
      let q = Queue.create () in
      comp.(i) <- !ncomp;
      Queue.add i q;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        List.iter
          (fun y ->
            if comp.(y) < 0 then begin
              comp.(y) <- !ncomp;
              Queue.add y q
            end)
          nbrs.(x)
      done;
      incr ncomp
    end
  done;
  let assigned = ref [] and deferred = ref [] in
  for c = 0 to !ncomp - 1 do
    let members = ref [] in
    for i = k - 1 downto 0 do
      if comp.(i) = c then members := i :: !members
    done;
    let rec solve members =
      match members with
      | [] -> ()
      | _ ->
          let idx = Array.of_list members in
          let local_edges = Array.map (fun i -> edges.(i)) idx in
          let pos = Hashtbl.create 8 in
          Array.iteri (fun p i -> Hashtbl.replace pos i p) idx;
          let local_nbrs =
            Array.map
              (fun i -> List.filter_map (fun j -> Hashtbl.find_opt pos j) nbrs.(i))
              idx
          in
          (match try_orient g local_edges local_nbrs with
          | Some dir ->
              Array.iteri (fun p e -> assigned := (e, dir.(p)) :: !assigned) local_edges
          | None ->
              (* defer the most-constrained edge and retry *)
              let worst =
                List.fold_left
                  (fun best i ->
                    if List.length nbrs.(i) > List.length nbrs.(best) then i else best)
                  (List.hd members) members
              in
              deferred := edges.(worst) :: !deferred;
              solve (List.filter (fun i -> i <> worst) members))
    in
    solve !members
  done;
  (List.rev !assigned, List.rev !deferred)

(* The "exclusive coloring" waves of phase 1: a node acts when every
   unfinished node within 2 hops has a lower id. *)
let two_hop_waves g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let scratch = Traversal.scratch g in
    let hood = Array.init n (fun v -> Traversal.within ~scratch g v 2) in
    let finished = Array.make n false in
    let waves = ref 0 in
    let remaining = ref n in
    while !remaining > 0 do
      incr waves;
      let this_wave = ref [] in
      for v = 0 to n - 1 do
        if not finished.(v) then begin
          let blocked = List.exists (fun w -> (not finished.(w)) && w > v) hood.(v) in
          if not blocked then this_wave := v :: !this_wave
        end
      done;
      List.iter
        (fun v ->
          finished.(v) <- true;
          decr remaining)
        !this_wave
    done;
    !waves
  end

let run ?(trace = Trace.null) ?(metrics = Metrics.null) ?(spans = Span.null) g =
  Span.span spans "dmgc" @@ fun () ->
  let metrics =
    List.fold_left
      (fun m (k, v) -> Metrics.with_label m k v)
      metrics
      [ ("algo", "dmgc"); ("engine", "model"); ("phase", "dmgc") ]
  in
  let m = Graph.m g in
  let sched = Schedule.make g in
  if m = 0 then begin
    (* record the (zero) stats anyway so the registry view stays exact *)
    Metrics.add_stats metrics Stats.zero;
    if Metrics.enabled metrics then
      Metrics.gauge metrics Metrics.Name.slots 0.;
    { schedule = sched; stats = Stats.zero; base_colors = 0; injected_edges = 0 }
  end
  else begin
    let col, vstats = Span.span spans "dmgc.vizing" (fun () -> Vizing.color g) in
    let base_colors = 1 + Array.fold_left max (-1) col in
    let classes = Array.make base_colors [] in
    Array.iteri (fun e c -> classes.(c) <- e :: classes.(c)) col;
    let injected = ref 0 in
    let orientation_rounds = ref 0 in
    let scratch = Conflict.scratch g in
    Span.span spans "dmgc.orient" (fun () ->
    Array.iteri
      (fun c class_edges ->
        let assigned, deferred = orient_class g class_edges in
        orientation_rounds := !orientation_rounds + List.length class_edges;
        List.iter
          (fun (e, d) ->
            Schedule.set sched (Arc.of_edge ~edge:e ~dir:d) c;
            Schedule.set sched (Arc.of_edge ~edge:e ~dir:(1 - d)) (c + base_colors))
          assigned;
        (* inject fresh colors for the deferred edges, both directions *)
        List.iter
          (fun e ->
            incr injected;
            List.iter
              (fun d ->
                let a = Arc.of_edge ~edge:e ~dir:d in
                let forbidden = Hashtbl.create 16 in
                Conflict.iter_conflicting ~scratch g a (fun b ->
                    let cb = Schedule.get sched b in
                    if cb >= 0 then Hashtbl.replace forbidden cb ());
                let rec first c = if Hashtbl.mem forbidden c then first (c + 1) else c in
                Schedule.set sched a (first (2 * base_colors)))
              [ 0; 1 ])
          deferred)
      classes);
    Log.debug (fun m ->
        m "phase 1: %d base colors; phase 2 deferred %d edges to injected colors"
          base_colors !injected);
    assert (Schedule.is_complete sched);
    (* Cost model (see .mli): 2 rounds per exclusive-coloring wave, one
       round per cd-path edge for the inversion and one more for its
       locking, one round per edge examined by the per-color direction
       DFS.  Messages: each round in the synchronous view moves one
       message per live link. *)
    let waves = two_hop_waves g in
    let rounds = (2 * waves) + (2 * vstats.Vizing.total_path_length) + !orientation_rounds in
    let messages = (2 * m * waves) + (2 * vstats.Vizing.total_path_length) + (2 * m * base_colors) in
    if Trace.enabled trace then begin
      (* decision-only trace: the stats above are a cost model, not
         engine counters, so there are no channel events to record *)
      Trace.emit trace ~t:0. (Trace.Phase { label = "dmgc"; scale = 1 });
      Arc.iter g (fun a ->
          let c = Schedule.get sched a in
          if c >= 0 then
            Trace.emit trace ~t:0.
              (Trace.Color { node = Arc.tail g a; arc = a; slot = c }))
    end;
    let stats = Stats.make ~rounds ~messages () in
    Metrics.add_stats metrics stats;
    if Metrics.enabled metrics then begin
      let colored = ref 0 in
      Arc.iter g (fun a -> if Schedule.get sched a >= 0 then incr colored);
      Metrics.inc ~by:!colored metrics Metrics.Name.colors;
      Metrics.gauge metrics "fdlsp_base_colors" (float_of_int base_colors);
      Metrics.gauge metrics "fdlsp_injected_edges" (float_of_int !injected);
      Metrics.gauge metrics Metrics.Name.slots (float_of_int (Schedule.num_slots sched))
    end;
    ({ schedule = sched; stats; base_colors; injected_edges = !injected } : result)
  end
