(* Reference D-MGC phase 2 for {!Fdlsp_core.Dmgc}: the orientation
   search, the 2-hop wave count and the injection as they were before
   the orientation phase skipped its unsatisfiable retries, kept as
   plain functions for differential tests.  Every same-colored pair of
   edges is tested for interaction with [Graph.mem_edge]; a component
   that cannot be oriented defers its most-constrained edge and reruns
   the whole budgeted backtracking search on the rest; the waves rescan
   every unfinished node once per wave; and injection first-fits over a
   [Hashtbl] of forbidden colors.  It is quadratic and slow, and
   obviously the algorithm [Dmgc] documents; [Dmgc] must produce the
   same [orient_class] output and the same [run] result. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core

let oriented_conflict g e1 d1 e2 d2 =
  let ends e d =
    let u, v = Graph.edge_endpoints g e in
    if d = 0 then (u, v) else (v, u)
  in
  let t1, h1 = ends e1 d1 and t2, h2 = ends e2 d2 in
  Graph.mem_edge g h1 t2 || Graph.mem_edge g h2 t1

let interact g e1 e2 =
  let a, b = Graph.edge_endpoints g e1 and c, d = Graph.edge_endpoints g e2 in
  Graph.mem_edge g a c || Graph.mem_edge g a d || Graph.mem_edge g b c
  || Graph.mem_edge g b d

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
  let nbrs = Array.make k [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if interact g edges.(i) edges.(j) then begin
        nbrs.(i) <- j :: nbrs.(i);
        nbrs.(j) <- i :: nbrs.(j)
      end
    done
  done;
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
      | _ -> (
          let idx = Array.of_list members in
          let local_edges = Array.map (fun i -> edges.(i)) idx in
          let pos = Hashtbl.create 8 in
          Array.iteri (fun p i -> Hashtbl.replace pos i p) idx;
          let local_nbrs =
            Array.map
              (fun i -> List.filter_map (fun j -> Hashtbl.find_opt pos j) nbrs.(i))
              idx
          in
          match try_orient g local_edges local_nbrs with
          | Some dir ->
              Array.iteri (fun p e -> assigned := (e, dir.(p)) :: !assigned) local_edges
          | None ->
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

(* [Dmgc.run] without telemetry: phase 1 is the library's
   [Vizing.color] (pinned separately in test_color.ml). *)
let run g =
  let m = Graph.m g in
  let sched = Schedule.make g in
  if m = 0 then
    { Dmgc.schedule = sched; stats = Stats.zero; base_colors = 0; injected_edges = 0 }
  else begin
    let col, vstats = Vizing.color g in
    let base_colors = 1 + Array.fold_left max (-1) col in
    let classes = Array.make base_colors [] in
    Array.iteri (fun e c -> classes.(c) <- e :: classes.(c)) col;
    let injected = ref 0 in
    let orientation_rounds = ref 0 in
    let scratch = Conflict.scratch g in
    Array.iteri
      (fun c class_edges ->
        let assigned, deferred = orient_class g class_edges in
        orientation_rounds := !orientation_rounds + List.length class_edges;
        List.iter
          (fun (e, d) ->
            Schedule.set sched (Arc.of_edge ~edge:e ~dir:d) c;
            Schedule.set sched (Arc.of_edge ~edge:e ~dir:(1 - d)) (c + base_colors))
          assigned;
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
      classes;
    let waves = two_hop_waves g in
    let rounds = (2 * waves) + (2 * vstats.Vizing.total_path_length) + !orientation_rounds in
    let messages =
      (2 * m * waves) + (2 * vstats.Vizing.total_path_length) + (2 * m * base_colors)
    in
    {
      Dmgc.schedule = sched;
      stats = Stats.make ~rounds ~messages ();
      base_colors;
      injected_edges = !injected;
    }
  end
