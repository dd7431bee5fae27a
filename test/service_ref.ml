(* Reference batch repair for {!Fdlsp_core.Service}: the algorithm the
   service ran before it kept incremental state, kept as a pure
   function for differential tests.  Every batch rebuilds the whole
   post-batch graph with [Graph.create], carries survivor colors over
   by arc id, first-fits every arc of a reset node with
   [Greedy.first_free], asserts that the touched neighborhood has no
   clash left (raising [Failure] naming the arcs if it has), and
   enforces [Bounds.upper] by scanning every arc.  It is slow (O(m) and
   more per batch) and obviously faithful; the service must produce
   the same schedules, receipts and snapshot bytes. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

type state = {
  refine : bool;
  alive : bool array;
  graph : Graph.t;
  sched : Schedule.t;
  totals : Service.totals;
}

let of_schedule ?(refine = true) sched =
  let g = Schedule.graph sched in
  {
    refine;
    alive = Array.make (Graph.n g) true;
    graph = g;
    sched = Schedule.copy sched;
    totals = { Service.batches = 0; events = 0; ops = 0; recolored = 0 };
  }

(* (graph, schedule, alive, coalesced ops, refine) -> (graph',
   schedule', alive', receipt).  Raises [Invalid_argument] on the same
   malformed batches as the service. *)
let apply_ops ~refine ~graph ~sched ~alive ops ~n_events =
  let n = Array.length alive in
  let invalid fmt = Printf.ksprintf invalid_arg fmt in
  let leaves = List.filter_map (function Service.Op_leave v -> Some v | _ -> None) ops in
  let moves =
    List.filter_map (function Service.Op_move (v, l) -> Some (v, l) | _ -> None) ops
  in
  let joins =
    List.filter_map (function Service.Op_join (v, l) -> Some (v, l) | _ -> None) ops
  in
  let degrades =
    List.filter_map (function Service.Op_degrade (u, v) -> Some (u, v) | _ -> None) ops
  in
  List.iter (fun v -> if v >= n then invalid "leave names unknown node %d" v) leaves;
  List.iter (fun (v, _) -> if v >= n then invalid "move names unknown node %d" v) moves;
  let fresh =
    List.sort compare (List.filter_map (function v, _ when v >= n -> Some v | _ -> None) joins)
  in
  List.iteri (fun i v -> if v <> n + i then invalid "fresh join %d" v) fresh;
  List.iter (fun (v, _) -> if v < n && alive.(v) then invalid "join of live node %d" v) joins;
  let n' = n + List.length fresh in
  let alive' = Array.make n' true in
  Array.blit alive 0 alive' 0 n;
  List.iter (fun (v, _) -> if v < n then alive'.(v) <- true) (moves @ joins);
  List.iter (fun v -> alive'.(v) <- false) leaves;
  let reset = Array.make n' false in
  List.iter (fun (v, _) -> reset.(v) <- true) (moves @ joins);
  let degraded = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      if u >= n || v >= n || not (Graph.mem_edge graph u v) then
        invalid "degrade names a missing link {%d,%d}" u v;
      Hashtbl.replace degraded (u, v) ())
    degrades;
  List.iter
    (fun (v, nbrs) ->
      List.iter
        (fun w ->
          if w < 0 || w >= n' then invalid "node %d links to out-of-range %d" v w;
          if w = v then invalid "node %d links to itself" v)
        nbrs)
    (moves @ joins);
  let survivors = ref [] in
  Graph.iter_edges graph (fun e u v ->
      if
        alive'.(u) && alive'.(v)
        && (not reset.(u))
        && (not reset.(v))
        && not (Hashtbl.mem degraded (u, v))
      then
        survivors :=
          ( u,
            v,
            Schedule.get sched (Arc.of_edge ~edge:e ~dir:0),
            Schedule.get sched (Arc.of_edge ~edge:e ~dir:1) )
          :: !survivors);
  let fresh_edges = Hashtbl.create 16 in
  List.iter
    (fun (v, nbrs) ->
      List.iter
        (fun w -> if alive'.(w) then Hashtbl.replace fresh_edges (min v w, max v w) ())
        nbrs)
    (moves @ joins);
  let edges =
    List.rev_map (fun (u, v, _, _) -> (u, v)) !survivors
    |> Hashtbl.fold (fun e () acc -> e :: acc) fresh_edges
  in
  let g' = Graph.create ~n:n' edges in
  let sched' = Schedule.make g' in
  List.iter
    (fun (u, v, cuv, cvu) ->
      if cuv >= 0 then Schedule.set sched' (Arc.make g' u v) cuv;
      if cvu >= 0 then Schedule.set sched' (Arc.make g' v u) cvu)
    !survivors;
  let scratch = Conflict.scratch g' in
  let touched = Hashtbl.create 64 in
  let recolored = ref 0 in
  let recolor a =
    Schedule.set sched' a (Greedy.first_free ~scratch sched' a);
    Hashtbl.replace touched a ();
    incr recolored
  in
  let reset_nodes = List.filter (fun v -> reset.(v)) (List.init n' Fun.id) in
  List.iter
    (fun v ->
      Arc.iter_incident g' v (fun a -> if not (Schedule.is_colored sched' a) then recolor a))
    reset_nodes;
  (* the recolor-pass lemma of {!Service}: one first-fit pass over the
     reset nodes' arcs leaves no clash in their neighborhood *)
  let tnodes = Array.make n' false in
  List.iter
    (fun v ->
      tnodes.(v) <- true;
      Graph.iter_neighbors g' v (fun w -> tnodes.(w) <- true))
    reset_nodes;
  for v = 0 to n' - 1 do
    if tnodes.(v) then
      Arc.iter_incident g' v (fun a ->
          let c = Schedule.get sched' a in
          if c >= 0 then
            List.iter
              (fun b ->
                if Schedule.get sched' b = c then
                  failwith
                    (Printf.sprintf
                       "recolor-pass lemma violated: arc %d->%d and arc %d->%d share color %d"
                       (Arc.tail g' a) (Arc.head g' a) (Arc.tail g' b) (Arc.head g' b) c))
              (Conflict.conflicting ~scratch g' a))
  done;
  if refine then begin
    let ub = Bounds.upper g' in
    Arc.iter g' (fun a -> if Schedule.get sched' a >= ub then recolor a)
  end;
  let total_arcs = Arc.count g' in
  let b_touched = Hashtbl.length touched in
  ( g',
    sched',
    alive',
    {
      Service.b_events = n_events;
      b_ops = List.length ops;
      b_recolored = !recolored;
      b_touched;
      b_touched_frac =
        (if total_arcs = 0 then 0. else float_of_int b_touched /. float_of_int total_arcs);
      b_slots = Schedule.num_slots sched';
    } )

(* One batch of already-coalesced ops, with the empty batch taking the
   zero-touch path as the service does. *)
let step st ops ~n_events =
  let st', b =
    match ops with
    | [] ->
        ( st,
          {
            Service.b_events = n_events;
            b_ops = 0;
            b_recolored = 0;
            b_touched = 0;
            b_touched_frac = 0.;
            b_slots = Schedule.num_slots st.sched;
          } )
    | ops ->
        let graph, sched, alive, b =
          apply_ops ~refine:st.refine ~graph:st.graph ~sched:st.sched ~alive:st.alive ops
            ~n_events
        in
        ({ st with graph; sched; alive }, b)
  in
  let t = st.totals in
  ( {
      st' with
      totals =
        {
          Service.batches = t.Service.batches + 1;
          events = t.Service.events + n_events;
          ops = t.Service.ops + b.Service.b_ops;
          recolored = t.Service.recolored + b.Service.b_recolored;
        };
    },
    b )

(* The snapshot format of {!Service.snapshot}, written from the
   reference state. *)
let snapshot st =
  let t = st.totals in
  let payload =
    String.concat ""
      [
        "fdlsp-service 1\n";
        Printf.sprintf "refine %d\n" (if st.refine then 1 else 0);
        Printf.sprintf "totals %d %d %d %d\n" t.Service.batches t.Service.events t.Service.ops
          t.Service.recolored;
        Printf.sprintf "alive %s\n"
          (String.init (Array.length st.alive) (fun v -> if st.alive.(v) then '1' else '0'));
        "graph\n";
        Io.to_string st.graph;
        "schedule\n";
        Schedule.to_string st.sched;
      ]
  in
  payload ^ Printf.sprintf "checksum %s\n" (Digest.to_hex (Digest.string payload))

(* Feeds one batch of raw events to every service in [read] and
   [unread], all in the state of the reference [st], and returns the
   next reference state.  The batch is coalesced by the first service
   (the coalescer is shared code).  Fails with the first difference: a
   batch only one side rejects, a receipt field, a count, or the slot
   of any arc.  For the services in [read] it also compares
   [Service.schedule] and, unless [~bytes:false], the snapshot bytes;
   both fold the overlay into the base.  It reads nothing from the
   [unread] ones that does, so their overlay carries across batches the
   way it does in a serve loop or a log replay. *)
let check_batch ?(bytes = true) ?(read = []) ?(unread = []) st evs =
  let fail fmt = Printf.ksprintf failwith fmt in
  let ops = match read @ unread with svc :: _ -> Service.coalesce svc evs | [] -> [] in
  let want =
    match step st ops ~n_events:(List.length evs) with
    | r -> Some r
    | exception Invalid_argument _ -> None
  in
  let check ~read svc =
    let got = match Service.apply svc evs with b -> Some b | exception Invalid_argument _ -> None in
    match (want, got) with
    | None, None -> ()
    | None, Some _ -> fail "the service accepted a batch the reference rejects"
    | Some _, None -> fail "the service rejected a batch the reference accepts"
    | Some (st', want), Some got ->
        let field name a b = if a <> b then fail "receipt %s: service %d, reference %d" name a b in
        field "b_events" got.Service.b_events want.Service.b_events;
        field "b_ops" got.Service.b_ops want.Service.b_ops;
        field "b_recolored" got.Service.b_recolored want.Service.b_recolored;
        field "b_touched" got.Service.b_touched want.Service.b_touched;
        field "b_slots" got.Service.b_slots want.Service.b_slots;
        if got.Service.b_touched_frac <> want.Service.b_touched_frac then
          fail "receipt b_touched_frac: service %h, reference %h" got.Service.b_touched_frac
            want.Service.b_touched_frac;
        field "num_slots" (Service.num_slots svc) want.Service.b_slots;
        field "nodes" (Service.nodes svc) (Array.length st'.alive);
        field "live" (Service.live svc)
          (Array.fold_left (fun k a -> if a then k + 1 else k) 0 st'.alive);
        if Service.totals svc <> st'.totals then fail "totals differ";
        Array.iteri
          (fun v a -> if Service.alive svc v <> a then fail "alive %d differs" v)
          st'.alive;
        Graph.iter_edges st'.graph (fun e u v ->
            let arc dir x y =
              let want = Schedule.get st'.sched (Arc.of_edge ~edge:e ~dir) in
              match Service.slot_of_arc svc x y with
              | Some c when c = want -> ()
              | Some c -> fail "slot of %d->%d: service %d, reference %d" x y c want
              | None -> fail "slot of %d->%d: service has no such link" x y
            in
            arc 0 u v;
            arc 1 v u);
        if read then begin
          if not (Schedule.equal (Service.schedule svc) st'.sched) then fail "schedules differ";
          if bytes && Service.snapshot svc <> snapshot st' then fail "snapshot bytes differ"
        end
  in
  List.iter (check ~read:true) read;
  List.iter (check ~read:false) unread;
  match want with Some (st', _) -> st' | None -> st
