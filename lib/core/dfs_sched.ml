open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

let src = Logs.Src.create "fdlsp.dfs" ~doc:"DFS scheduler (Algorithm 2)"

module Log = (val Logs.src_log src : Logs.LOG)

type next_policy = Max_degree | Min_id

type result = { schedule : Schedule.t; stats : Stats.t; token_moves : int }

type msg =
  | Token
  | Return  (** token handed back to the parent *)
  | Query
  | Reply of (Arc.id * int) array
  | Announce of (Arc.id * int) array
  | Forwarded of (Arc.id * int) array  (** one-hop relay of an announce *)
  | Ack  (** announce received; the colorer may move the token on *)

type node = {
  mutable parent : int;  (* -1 = not yet visited; self = root *)
  mutable visited_nbrs : int list;
  mutable pending_replies : int;
  mutable pending_acks : int;
  known : int Arc.Tbl.t;
      (* long-term store: only arcs incident to this node's 1-hop halo,
         which is everything it ever needs to answer queries *)
  mutable replies : (Arc.id * int) array list;
      (* the tables the neighbors replied with during this visit *)
  mutable assigned : (Arc.id * int) list;
  mutable moves : int;
}

(* An arc is relevant to [v] when it is incident to [v] or to a
   neighbor of [v], i.e. when its tail or its head lies in N[v].  Nodes
   prune everything else from their stored tables: a reply to neighbor
   [w] only ever needs arcs incident to [N(v) + v], and those cover
   [w]'s distance-2 requirements once all of [w]'s neighbors reply.

   The test runs on every entry of every table a node receives, so N[v]
   is marked once per received table in the run's node set [hood] and
   each entry costs two array reads. *)
let merge_relevant hood g v known table =
  Stamp.clear hood;
  Stamp.mark hood v;
  Graph.iter_neighbors g v (Stamp.mark hood);
  Array.iter
    (fun (a, c) ->
      if Stamp.marked hood (Arc.tail g a) || Stamp.marked hood (Arc.head g a) then
        Arc.Tbl.replace known a c)
    table

(* node ids are immediate ints, so physical equality is equality and
   [List.memq] skips the polymorphic compare of [List.mem] *)
let mark_visited st w =
  if not (List.memq w st.visited_nbrs) then st.visited_nbrs <- w :: st.visited_nbrs

(* Greedy first-fit for the token holder's uncolored incident arcs,
   using only the gathered distance-2 knowledge: the holder's own table
   merged with its neighbors' replies.  The merge runs once, into the
   run's arc-indexed [view], when the last reply is in.  Tables merge
   as sets, and every copy of an arc's color agrees (an arc is colored
   once and never recolored), so arrival order cannot matter. *)
let color_own ~scratch ~view trace ~t g st v =
  let fresh = ref [] in
  Arc.Dense.clear view;
  Arc.Tbl.iter (Arc.Dense.replace view) st.known;
  List.iter (Arc.Dense.add_array view) st.replies;
  st.replies <- [];
  let color_of = Arc.Dense.get view in
  Arc.iter_incident g v (fun a ->
      if not (Arc.Dense.mem view a) then begin
        let c = Conflict.first_fit ~scratch g a color_of in
        Arc.Dense.replace view a c;
        Arc.Tbl.replace st.known a c;
        Trace.emit trace ~t (Trace.Color { node = v; arc = a; slot = c });
        fresh := (a, c) :: !fresh
      end);
  st.assigned <- !fresh @ st.assigned;
  List.rev !fresh

let pass_token g policy ctx st =
  let v = Async.self ctx in
  let candidates =
    Graph.fold_neighbors g v
      (fun acc w -> if List.memq w st.visited_nbrs then acc else w :: acc)
      []
  in
  match candidates with
  | [] -> if st.parent <> v then Async.send ctx st.parent Return
  | _ ->
      let better a b =
        match policy with
        | Max_degree ->
            Graph.degree g a > Graph.degree g b
            || (Graph.degree g a = Graph.degree g b && a < b)
        | Min_id -> a < b
      in
      let next = List.fold_left (fun best w -> if better w best then w else best)
          (List.hd candidates) (List.tl candidates)
      in
      mark_visited st next;
      st.moves <- st.moves + 1;
      Async.send ctx next Token

let start_visit ctx st parent =
  let v = Async.self ctx in
  st.parent <- parent;
  if parent <> v then mark_visited st parent;
  st.replies <- [];
  let nbrs = Async.neighbors ctx in
  st.pending_replies <- Array.length nbrs;
  if st.pending_replies = 0 then ()
  else Array.iter (fun w -> Async.send ctx w Query) nbrs

let finish_coloring ~scratch ~view trace g policy ctx st =
  let v = Async.self ctx in
  let fresh = color_own ~scratch ~view trace ~t:(Async.now ctx) g st v in
  let nbrs = Async.neighbors ctx in
  if Array.length nbrs = 0 then ()
  else begin
    st.pending_acks <- Array.length nbrs;
    let payload = Array.of_list fresh in
    Array.iter (fun w -> Async.send ctx w (Announce payload)) nbrs
  end;
  if st.pending_acks = 0 then pass_token g policy ctx st

let handler ~scratch ~view ~hood trace g policy ctx st ~sender msg =
  (match msg with
  | Token ->
      if st.parent >= 0 then
        (* a visited node never receives a fresh token: senders only pick
           unvisited neighbors, so treat it as a return *)
        pass_token g policy ctx st
      else start_visit ctx st sender
  | Return ->
      mark_visited st sender;
      pass_token g policy ctx st
  | Query ->
      mark_visited st sender;
      Async.send ctx sender (Reply (Arc.Tbl.to_array st.known))
  | Reply table ->
      st.replies <- table :: st.replies;
      merge_relevant hood g (Async.self ctx) st.known table;
      st.pending_replies <- st.pending_replies - 1;
      if st.pending_replies = 0 then finish_coloring ~scratch ~view trace g policy ctx st
  | Announce table ->
      mark_visited st sender;
      merge_relevant hood g (Async.self ctx) st.known table;
      Array.iter
        (fun w -> if w <> sender then Async.send ctx w (Forwarded table))
        (Async.neighbors ctx);
      Async.send ctx sender Ack
  | Forwarded table -> merge_relevant hood g (Async.self ctx) st.known table
  | Ack ->
      st.pending_acks <- st.pending_acks - 1;
      if st.pending_acks = 0 then pass_token g policy ctx st);
  st

let default_roots g =
  let comp, k = Traversal.components g in
  let roots = Array.make k (-1) in
  for v = Graph.n g - 1 downto 0 do
    let c = comp.(v) in
    if roots.(c) < 0 || Graph.degree g v >= Graph.degree g roots.(c) then roots.(c) <- v
  done;
  Array.to_list roots

let run ?(policy = Max_degree) ?(delay = Async.Unit) ?faults ?reliable ?roots
    ?(trace = Trace.null) ?(metrics = Metrics.null) ?(spans = Span.null) g =
  Span.span spans "dfs" @@ fun () ->
  let roots = match roots with Some r -> r | None -> default_roots g in
  let metrics =
    Metrics.with_label (Metrics.with_label metrics "algo" "dfs") "phase" "dfs"
  in
  if Trace.enabled trace then
    Trace.emit trace ~t:0. (Trace.Phase { label = "dfs"; scale = 1 });
  let init _ =
    {
      parent = -1;
      visited_nbrs = [];
      pending_replies = 0;
      pending_acks = 0;
      known = Arc.Tbl.create 32;
      replies = [];
      assigned = [];
      moves = 0;
    }
  in
  let starts =
    List.map
      (fun r ->
        ( r,
          fun ctx st ->
            start_visit ctx st r;
            (* isolated root: nothing to query, nothing to color *)
            if Array.length (Async.neighbors ctx) = 0 then st.parent <- r;
            st ))
      roots
  in
  let weight = function
    | Reply t | Announce t | Forwarded t -> Array.length t
    | Token | Return | Query | Ack -> 1
  in
  let reliable =
    (* the protocol assumes exactly-once FIFO channels, so a fault plan
       with lossy links implies the ARQ layer even if the caller did not
       tune it *)
    match (reliable, faults) with
    | (Some _ as r), _ -> r
    | None, Some p when not (Fault.is_none p) -> Some Reliable.default
    | None, _ -> None
  in
  (* per-run scratch: the engine runs one handler at a time *)
  let scratch = Conflict.scratch g and view = Arc.Dense.create g in
  let hood = Stamp.create (Graph.n g) in
  (* Messages are O(m Δ) (see the interface), so the event budget
     follows the graph; the 10^6 floor is the livelock guard on small
     graphs. *)
  let max_events =
    max 1_000_000 (8 * (Graph.n g + Arc.count g) * (Graph.max_degree g + 1))
  in
  let states, stats =
    Async.run ~delay ~max_events ?faults ?reliable ~weight ~trace ~metrics ~spans g ~init
      ~starts ~handler:(handler ~scratch ~view ~hood trace g policy)
  in
  let sched = Schedule.make g in
  Array.iter
    (fun st ->
      List.iter
        (fun (a, c) ->
          if Schedule.is_colored sched a then
            invalid_arg "Dfs_sched.run: arc colored by two nodes";
          Schedule.set sched a c)
        st.assigned)
    states;
  if not (Schedule.is_complete sched) then
    invalid_arg "Dfs_sched.run: incomplete schedule (missing component root?)";
  let token_moves = Array.fold_left (fun acc st -> acc + st.moves) 0 states in
  if Metrics.enabled metrics then begin
    Metrics.inc ~by:token_moves metrics Metrics.Name.token_moves;
    Metrics.inc
      ~by:(Array.fold_left (fun acc st -> acc + List.length st.assigned) 0 states)
      metrics Metrics.Name.colors;
    Metrics.gauge metrics Metrics.Name.slots (float_of_int (Schedule.num_slots sched))
  end;
  Log.debug (fun m ->
      m "%d token moves, %d slots, %d async time units" token_moves
        (Schedule.num_slots sched) stats.Stats.rounds);
  { schedule = sched; stats; token_moves }
