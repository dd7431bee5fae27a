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

(* One color class's interaction graph, built from [owner.(v)] — the
   class index of the class edge incident on [v], or -1 (a class is a
   matching, so there is at most one).  Edges [i] and [j] interact when
   an endpoint of one is adjacent to an endpoint of the other; the
   neighbors of class edge [i] are [nb.(off.(i) .. off.(i+1) - 1)],
   each once, with the orientations the pair forbids in [mk].

   Orient [i = (a, b)] and [j = (c, d)] (canonical, [a < b], [c < d]) as
   [dir] 0 = canonical.  The oriented arcs conflict iff the head of one
   is adjacent to the tail of the other.  An adjacency [a~c] or [b~d]
   makes opposite directions conflict, [a~d] or [b~c] equal ones, so a
   pair's four (dir, dir) cases collapse to two bits: [same_bad] and
   [opp_bad]. *)
let same_bad = 1
let opp_bad = 2
let forbids mask d d' = mask land (if d = d' then same_bad else opp_bad) <> 0

type interaction = { edges : int array; off : int array; nb : int array; mk : int array }

let interaction ~owner g edges =
  let k = Array.length edges in
  Array.iteri
    (fun i e ->
      let a, b = Graph.edge_endpoints g e in
      owner.(a) <- i;
      owner.(b) <- i)
    edges;
  (* a pair is met at most once per adjacency between the two edges *)
  let cap =
    Array.fold_left
      (fun acc e ->
        let a, b = Graph.edge_endpoints g e in
        acc + Graph.degree g a + Graph.degree g b)
      0 edges
  in
  let off = Array.make (k + 1) 0 and nb = Array.make cap 0 and mk = Array.make cap 0 in
  let len = ref 0 and acc = Array.make k 0 in
  for i = 0 to k - 1 do
    let a, b = Graph.edge_endpoints g edges.(i) in
    let start = !len in
    let scan x =
      Graph.iter_neighbors g x (fun w ->
          let j = owner.(w) in
          if j >= 0 && j <> i then begin
            if acc.(j) = 0 then begin
              nb.(!len) <- j;
              incr len
            end;
            let c = fst (Graph.edge_endpoints g edges.(j)) in
            acc.(j) <- acc.(j) lor (if (x = a) = (w = c) then opp_bad else same_bad)
          end)
    in
    scan a;
    scan b;
    for p = start to !len - 1 do
      mk.(p) <- acc.(nb.(p));
      acc.(nb.(p)) <- 0
    done;
    off.(i + 1) <- !len
  done;
  Array.iter
    (fun e ->
      let a, b = Graph.edge_endpoints g e in
      owner.(a) <- -1;
      owner.(b) <- -1)
    edges;
  { edges; off; nb; mk }

(* Backtracking orientation of the class edges [vars.(0 .. nv - 1)],
   in that order, [dir] 0 before 1: the first orientation found is the
   lexicographically least.  A decision cap keeps pathological
   components bounded — on overflow we report failure and the caller
   defers an edge.  [dir] is all -1 on entry and on return. *)
let try_orient ix dir vars nv =
  let ok i d =
    let rec scan p =
      p >= ix.off.(i + 1)
      ||
      let d' = dir.(ix.nb.(p)) in
      (d' < 0 || not (forbids ix.mk.(p) d d')) && scan (p + 1)
    in
    scan ix.off.(i)
  in
  let budget = ref 200_000 in
  (* [enter l] charges one decision for level [l]; [attempt l d] tries
     [dir] [d] and up there; [backtrack l] resumes level [l - 1] after
     both directions of level [l] failed.  Running out of budget fails
     the whole search: every level still open would charge again. *)
  let rec enter l =
    if l = nv then true
    else begin
      decr budget;
      !budget > 0 && attempt l 0
    end
  and attempt l d =
    if d > 1 then backtrack l
    else if ok vars.(l) d then begin
      dir.(vars.(l)) <- d;
      enter (l + 1)
    end
    else attempt l (d + 1)
  and backtrack l =
    l > 0
    &&
    let i = vars.(l - 1) in
    let d = dir.(i) in
    dir.(i) <- -1;
    attempt (l - 1) (d + 1)
  in
  let found = enter 0 in
  let out = if found then Some (Array.init nv (fun l -> dir.(vars.(l)))) else None in
  for l = 0 to nv - 1 do
    dir.(vars.(l)) <- -1
  done;
  out

(* [up]/[par]/[size]: a union-find over class indices in which
   [par.(i)] is the parity of [i]'s direction relative to [up.(i)]. *)
type parity_uf = { up : int array; par : int array; size : int array }

let rec find uf i =
  let p = uf.up.(i) in
  if p = i then i
  else begin
    let r = find uf p in
    uf.par.(i) <- uf.par.(i) lxor uf.par.(p);
    uf.up.(i) <- r;
    r
  end

(* Record that [i] and [j] must differ ([rel] = 1) or agree ([rel] = 0)
   in direction; false if that contradicts what is recorded. *)
let relate uf i j rel =
  let ri = find uf i and rj = find uf j in
  let rel = rel lxor uf.par.(i) lxor uf.par.(j) in
  if ri = rj then rel = 0
  else begin
    let ri, rj = if uf.size.(ri) < uf.size.(rj) then (ri, rj) else (rj, ri) in
    uf.up.(ri) <- rj;
    uf.par.(ri) <- rel;
    uf.size.(rj) <- uf.size.(rj) + uf.size.(ri);
    true
  end

(* How one color class is oriented, and why this gives the output of
   the plain retry loop ("orient the component; if that fails, defer its
   most-constrained edge and retry the rest") in near-linear time.

   Three facts about that loop:
   - Its deferral order is fixed up front: descending degree in the
     class's whole interaction graph, ties to the lower class index
     ([order] below), because the degrees never change as edges go.
   - A pair's constraint is "directions agree", "directions differ", or
     both (see [same_bad]), so orienting a set of edges is a 2-SAT
     instance that is satisfiable iff these parity constraints are
     consistent.  If it is not, [try_orient] can only fail, whatever its
     budget.
   - Dropping edges keeps a consistent instance consistent.

   So the suffixes [order.(t ..)] that can be oriented at all are
   exactly those with [t >= t0] for one [t0].  One pass that adds
   [order] back to front to a parity union-find finds [t0] (the first
   contradiction), and the loop would have deferred [order.(0 .. t0-1)]
   one failed search at a time.  From [t0] on, the budgeted search runs
   exactly as before, and a failure — only the budget can cause one now
   — still defers [order.(t)]. *)
let orient ~owner g class_edges =
  let ix = interaction ~owner g (Array.of_list class_edges) in
  let k = Array.length ix.edges in
  let degree i = ix.off.(i + 1) - ix.off.(i) in
  let rank = Array.make k 0 and dir = Array.make k (-1) and vars = Array.make k 0 in
  let uf = { up = Array.init k Fun.id; par = Array.make k 0; size = Array.make k 1 } in
  let assigned = ref [] and deferred = ref [] in
  (* [members]: one interaction component, ascending *)
  let orient_component members =
    let order = Array.copy members in
    let size = Array.length order in
    Array.stable_sort (fun i j -> Int.compare (degree j) (degree i)) order;
    Array.iteri (fun r i -> rank.(i) <- r) order;
    (* [order.(t ..)] can be oriented iff adding [order.(t)] to the
       already consistent [order.(t+1 ..)] contradicts nothing *)
    let consistent_with_later i =
      let rec scan p =
        p >= ix.off.(i + 1)
        ||
        let j = ix.nb.(p) and mask = ix.mk.(p) in
        (rank.(j) < rank.(i)
        || (mask <> same_bad lor opp_bad && relate uf i j (if mask = same_bad then 1 else 0)))
        && scan (p + 1)
      in
      scan ix.off.(i)
    in
    let t0 = ref size in
    while !t0 > 0 && consistent_with_later order.(!t0 - 1) do
      decr t0
    done;
    for t = 0 to !t0 - 1 do
      deferred := ix.edges.(order.(t)) :: !deferred
    done;
    let rec solve t =
      if t < size then begin
        let nv = ref 0 in
        Array.iter
          (fun i ->
            if rank.(i) >= t then begin
              vars.(!nv) <- i;
              incr nv
            end)
          members;
        match try_orient ix dir vars !nv with
        | Some d ->
            for l = 0 to !nv - 1 do
              assigned := (ix.edges.(vars.(l)), d.(l)) :: !assigned
            done
        | None ->
            deferred := ix.edges.(order.(t)) :: !deferred;
            solve (t + 1)
      end
    in
    solve !t0
  in
  (* components in order of their least member, found by BFS *)
  let seen = Array.make k false and queue = Array.make k 0 in
  for i = 0 to k - 1 do
    if not seen.(i) then begin
      seen.(i) <- true;
      queue.(0) <- i;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        for p = ix.off.(x) to ix.off.(x + 1) - 1 do
          let y = ix.nb.(p) in
          if not seen.(y) then begin
            seen.(y) <- true;
            queue.(!tail) <- y;
            incr tail
          end
        done
      done;
      let members = Array.sub queue 0 !tail in
      Array.sort Int.compare members;
      orient_component members
    end
  done;
  (List.rev !assigned, List.rev !deferred)

let orient_class g class_edges = orient ~owner:(Array.make (Graph.n g) (-1)) g class_edges

(* The "exclusive coloring" waves of phase 1: a node acts when every
   unfinished node within 2 hops has a lower id, so it acts in the wave
   after the last of its higher 2-hop neighbors.  That is a
   longest-path layering, computed in descending id order. *)
let two_hop_waves g =
  let n = Graph.n g in
  let scratch = Traversal.scratch g in
  let wave = Array.make n 0 and waves = ref 0 in
  for v = n - 1 downto 0 do
    let w = ref 0 in
    Traversal.iter_within ~scratch g v 2 (fun u -> if u > v && wave.(u) > !w then w := wave.(u));
    wave.(v) <- !w + 1;
    if !w + 1 > !waves then waves := !w + 1
  done;
  !waves

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
    let owner = Array.make (Graph.n g) (-1) in
    let lo = 2 * base_colors in
    Span.span spans "dmgc.orient" (fun () ->
    Array.iteri
      (fun c class_edges ->
        let assigned, deferred = orient ~owner g class_edges in
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
                Schedule.set sched a
                  (lo + Conflict.first_fit ~scratch g a (fun b -> Schedule.get sched b - lo)))
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
