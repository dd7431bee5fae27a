open Fdlsp_graph
open Fdlsp_color
module Metrics = Fdlsp_sim.Metrics
module Span = Fdlsp_sim.Span
module Json = Fdlsp_sim.Json
module Name = Metrics.Name

let src = Logs.Src.create "fdlsp.service" ~doc:"long-lived scheduling service"

module Log = (val Logs.src_log src : Logs.LOG)

type event =
  | Join of { node : int; neighbors : int list }
  | Leave of int
  | Move of { node : int; neighbors : int list }
  | Degrade of { u : int; v : int }

type op =
  | Op_leave of int
  | Op_move of int * int list
  | Op_join of int * int list
  | Op_degrade of int * int

type totals = { batches : int; events : int; ops : int; recolored : int }

type batch = {
  b_events : int;
  b_ops : int;
  b_recolored : int;
  b_touched : int;
  b_touched_frac : float;
  b_slots : int;
}

type t = {
  metrics : Metrics.sink;
  spans : Span.sink;
  refine : bool;
  mutable n : int;
  mutable alive : bool array;
  mutable graph : Graph.t;
  mutable sched : Schedule.t;
  (* The long-lived conflict scratch: valid for any graph with the same
     arc count, so it survives every batch that preserves 2m and every
     query in between. *)
  mutable scratch : Conflict.scratch;
  mutable scratch_arcs : int;
  mutable t_batches : int;
  mutable t_events : int;
  mutable t_ops : int;
  mutable t_recolored : int;
}

let create ?(metrics = Metrics.null) ?(spans = Span.null) ?(refine = true) sched =
  if not (Schedule.valid sched) then
    invalid_arg "Service.create: schedule does not validate";
  let g = Schedule.graph sched in
  {
    metrics;
    spans;
    refine;
    n = Graph.n g;
    alive = Array.make (Graph.n g) true;
    graph = g;
    sched = Schedule.copy sched;
    scratch = Conflict.scratch g;
    scratch_arcs = Arc.count g;
    t_batches = 0;
    t_events = 0;
    t_ops = 0;
    t_recolored = 0;
  }

let nodes t = t.n
let live t = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

let alive t v =
  if v < 0 || v >= t.n then invalid_arg "Service.alive: node out of range";
  t.alive.(v)

let graph t = t.graph
let schedule t = t.sched
let num_slots t = Schedule.num_slots t.sched

let totals t =
  { batches = t.t_batches; events = t.t_events; ops = t.t_ops; recolored = t.t_recolored }

let slot_of_arc t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || not (Graph.mem_edge t.graph u v) then None
  else
    let c = Schedule.get t.sched (Arc.make t.graph u v) in
    if c < 0 then None else Some c

let slot_of_id t a = Schedule.get t.sched a

let scratch_for t g =
  let c = Arc.count g in
  if c <> t.scratch_arcs then begin
    t.scratch <- Conflict.scratch g;
    t.scratch_arcs <- c
  end;
  t.scratch

(* ------------------------------------------------------------------ *)
(* Coalescer                                                           *)
(* ------------------------------------------------------------------ *)

(* Net per-node effect of a batch, folded left to right:

             Join nb      Leave        Move nb
   (none)    N_join nb    N_leave      N_move nb
   N_join    N_join nb    (cancel)     N_join nb
   N_leave   N_move nb    N_leave      N_move nb
   N_move    N_move nb    N_leave      N_move nb

   A join cancelled by a later leave removes the binding entirely (as
   if the node was never mentioned); leave-then-rejoin nets to a move;
   duplicate leaves are idempotent; moves merge into the last one. *)
type net = N_join of int list | N_leave | N_move of int list

let coalesce t events =
  let nets : (int, net) Hashtbl.t = Hashtbl.create 16 in
  let degrades : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let check what v =
    if v < 0 then invalid_arg (Printf.sprintf "Service: %s names negative node %d" what v)
  in
  List.iter
    (fun ev ->
      match ev with
      | Join { node; neighbors } ->
          check "join" node;
          let next =
            match Hashtbl.find_opt nets node with
            | None | Some (N_join _) -> N_join neighbors
            | Some N_leave | Some (N_move _) -> N_move neighbors
          in
          Hashtbl.replace nets node next
      | Leave node -> (
          check "leave" node;
          match Hashtbl.find_opt nets node with
          | Some (N_join _) -> Hashtbl.remove nets node
          | Some N_leave -> ()
          | None | Some (N_move _) -> Hashtbl.replace nets node N_leave)
      | Move { node; neighbors } ->
          check "move" node;
          let next =
            match Hashtbl.find_opt nets node with
            | Some (N_join _) -> N_join neighbors
            | None | Some N_leave | Some (N_move _) -> N_move neighbors
          in
          Hashtbl.replace nets node next
      | Degrade { u; v } ->
          check "degrade" u;
          check "degrade" v;
          if u = v then invalid_arg "Service: degrade names a self-link";
          Hashtbl.replace degrades (min u v, max u v) ())
    events;
  let node_ops =
    Hashtbl.fold (fun v net acc -> (v, net) :: acc) nets []
    |> List.filter (fun (v, net) ->
           (* leaves of already-dead nodes are idempotent no-ops *)
           match net with
           | N_leave -> not (v < t.n && not t.alive.(v))
           | N_join _ | N_move _ -> true)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let pick f = List.filter_map f node_ops in
  let nbrs l = List.sort_uniq compare l in
  let leaves = pick (function v, N_leave -> Some (Op_leave v) | _ -> None) in
  let moves = pick (function v, N_move l -> Some (Op_move (v, nbrs l)) | _ -> None) in
  let joins = pick (function v, N_join l -> Some (Op_join (v, nbrs l)) | _ -> None) in
  let degrades =
    Hashtbl.fold
      (fun (u, v) () acc ->
        (* a node op on either endpoint subsumes the degrade *)
        if Hashtbl.mem nets u || Hashtbl.mem nets v then acc else Op_degrade (u, v) :: acc)
      degrades []
    |> List.sort compare
  in
  (* Whole-batch no-op detection: when every net op is a move of a live
     node back onto exactly its current live neighborhood (and nothing
     else survived coalescing), the post-batch graph is provably the
     current graph — each mover recreates each of its links and nothing
     new appears — so the batch nets to nothing and takes the zero-touch
     fast path instead of pointlessly recoloring every mover's arcs.
     This is what makes batch repair idempotent: re-submitting an
     already-applied net effect touches zero arcs.  The check is only
     sound batch-wide (dropping a single no-op move next to a live move
     could drop a link only the no-op mover still names), and it must
     not mask validation: moves naming out-of-range or self neighbors
     fall through so [apply_ops] still raises on them. *)
  let noop_move (v, nbrs_l) =
    v < t.n && t.alive.(v)
    && List.for_all (fun w -> w >= 0 && w < t.n && w <> v) nbrs_l
    && List.filter (fun w -> t.alive.(w)) nbrs_l
       = Array.to_list (Graph.neighbors t.graph v)
  in
  if
    leaves = [] && joins = [] && degrades = [] && moves <> []
    && List.for_all (function Op_move (v, l) -> noop_move (v, l) | _ -> false) moves
  then []
  else leaves @ moves @ joins @ degrades

(* ------------------------------------------------------------------ *)
(* Batch repair                                                        *)
(* ------------------------------------------------------------------ *)

(* One graph rebuild per batch.  Survivor arcs (no endpoint dead,
   reset, or degraded) keep their colors; every arc incident to a
   reset (joined/moved) node is first-fit recolored.  Any pair of arcs
   brought into conflict by a batch owes its new adjacency to a fresh
   link, and every fresh link has a reset endpoint — so one of the pair
   is always recolored against the other and a single pass restores
   validity.  A fixup sweep over the touched neighborhood re-checks
   that argument at runtime, and the refine pass enforces the Lemma-6
   budget [Bounds.upper] that carried colors could otherwise outgrow
   as the graph shrinks. *)
let apply_ops t ops ~n_events =
  let invalid fmt = Printf.ksprintf invalid_arg fmt in
  let leaves = List.filter_map (function Op_leave v -> Some v | _ -> None) ops in
  let moves = List.filter_map (function Op_move (v, l) -> Some (v, l) | _ -> None) ops in
  let joins = List.filter_map (function Op_join (v, l) -> Some (v, l) | _ -> None) ops in
  let degrades =
    List.filter_map (function Op_degrade (u, v) -> Some (u, v) | _ -> None) ops
  in
  List.iter
    (fun v -> if v >= t.n then invalid "Service: leave names unknown node %d" v)
    leaves;
  List.iter
    (fun (v, _) -> if v >= t.n then invalid "Service: move names unknown node %d" v)
    moves;
  (* fresh joins extend the id space consecutively; others must revive
     a dead ghost *)
  let fresh = List.sort compare (List.filter_map
    (function v, _ when v >= t.n -> Some v | _ -> None) joins)
  in
  List.iteri
    (fun i v ->
      if v <> t.n + i then
        invalid "Service: fresh join ids must be consecutive from %d, got %d" t.n v)
    fresh;
  List.iter
    (fun (v, _) ->
      if v < t.n && t.alive.(v) then invalid "Service: join of live node %d" v)
    joins;
  let n' = t.n + List.length fresh in
  let alive' = Array.make n' true in
  Array.blit t.alive 0 alive' 0 t.n;
  List.iter (fun (v, _) -> if v < t.n then alive'.(v) <- true) (moves @ joins);
  List.iter (fun v -> alive'.(v) <- false) leaves;
  let reset = Array.make n' false in
  List.iter (fun (v, _) -> reset.(v) <- true) (moves @ joins);
  let degraded : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      if u >= n' || v >= n' || not (Graph.mem_edge t.graph u v) then
        invalid "Service: degrade names a missing link {%d,%d}" u v;
      Hashtbl.replace degraded (u, v) ())
    degrades;
  (* survivors keep both arc colors across the rebuild *)
  let g', sched' =
    Span.span t.spans "service.rebuild" @@ fun () ->
    let survivors = ref [] in
    Graph.iter_edges t.graph (fun e u v ->
      if
        alive'.(u) && alive'.(v)
        && (not reset.(u))
        && (not reset.(v))
        && not (Hashtbl.mem degraded (u, v))
      then
        survivors :=
          ( u,
            v,
            Schedule.get t.sched (Arc.of_edge ~edge:e ~dir:0),
            Schedule.get t.sched (Arc.of_edge ~edge:e ~dir:1) )
          :: !survivors);
  let fresh_edges : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (v, nbrs) ->
      List.iter
        (fun w ->
          if w < 0 || w >= n' then
            invalid "Service: node %d links to out-of-range neighbor %d" v w;
          if w = v then invalid "Service: node %d links to itself" v;
          (* a leave in the same batch wins over links to the leaver *)
          if alive'.(w) then Hashtbl.replace fresh_edges (min v w, max v w) ())
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
    (g', sched')
  in
  (* coarse repair: first-fit every arc incident to a reset node *)
  let scratch = scratch_for t g' in
  let touched : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let recolored = ref 0 in
  let recolor a =
    Schedule.set sched' a (Greedy.first_free ~scratch sched' a);
    Hashtbl.replace touched a ();
    incr recolored
  in
  let reset_nodes = ref [] in
  for v = n' - 1 downto 0 do
    if reset.(v) then reset_nodes := v :: !reset_nodes
  done;
  Span.span t.spans "service.recolor" (fun () ->
      List.iter
        (fun v ->
          Arc.iter_incident g' v (fun a ->
              if not (Schedule.is_colored sched' a) then recolor a))
        !reset_nodes);
  (* fixup: re-check the touched neighborhood (see the argument above —
     expected to find nothing, kept as a runtime safety net) *)
  let exception Clash in
  let clashes a c =
    match
      Conflict.iter_conflicting ~scratch g' a (fun b ->
          if Schedule.get sched' b = c then raise Clash)
    with
    | () -> false
    | exception Clash -> true
  in
  let tnodes = Array.make n' false in
  List.iter
    (fun v ->
      tnodes.(v) <- true;
      Graph.iter_neighbors g' v (fun w -> tnodes.(w) <- true))
    !reset_nodes;
  Span.span t.spans "service.fixup" (fun () ->
      for v = 0 to n' - 1 do
        if tnodes.(v) then
          Arc.iter_incident g' v (fun a ->
              let c = Schedule.get sched' a in
              if c >= 0 && clashes a c then recolor a)
      done);
  (* refine: pull carried colors back under the current slot budget *)
  if t.refine then
    Span.span t.spans "service.refine" (fun () ->
        let ub = Bounds.upper g' in
        Arc.iter g' (fun a -> if Schedule.get sched' a >= ub then recolor a));
  t.n <- n';
  t.alive <- alive';
  t.graph <- g';
  t.sched <- sched';
  let total_arcs = Arc.count g' in
  let b_touched = Hashtbl.length touched in
  {
    b_events = n_events;
    b_ops = List.length ops;
    b_recolored = !recolored;
    b_touched;
    b_touched_frac =
      (if total_arcs = 0 then 0. else float_of_int b_touched /. float_of_int total_arcs);
    b_slots = Schedule.num_slots sched';
  }

let apply t events =
  let n_events = List.length events in
  let ops = Span.span t.spans "service.coalesce" (fun () -> coalesce t events) in
  let b =
    Span.span t.spans "service.repair" @@ fun () ->
    Metrics.timed t.metrics Name.service_repair (fun () ->
        match ops with
        | [] ->
            (* empty net batch: fast path, zero arcs touched *)
            {
              b_events = n_events;
              b_ops = 0;
              b_recolored = 0;
              b_touched = 0;
              b_touched_frac = 0.;
              b_slots = Schedule.num_slots t.sched;
            }
        | ops -> apply_ops t ops ~n_events)
  in
  t.t_batches <- t.t_batches + 1;
  t.t_events <- t.t_events + n_events;
  t.t_ops <- t.t_ops + b.b_ops;
  t.t_recolored <- t.t_recolored + b.b_recolored;
  if Metrics.enabled t.metrics then begin
    Metrics.inc ~by:n_events t.metrics Name.service_events;
    Metrics.inc ~by:b.b_ops t.metrics Name.service_ops;
    Metrics.inc t.metrics Name.service_batches;
    Metrics.inc ~by:b.b_recolored t.metrics Name.service_recolored;
    Metrics.observe t.metrics Name.service_batch_size (float_of_int n_events);
    Metrics.gauge t.metrics Name.service_touched_frac b.b_touched_frac;
    Metrics.gauge t.metrics Name.slots (float_of_int b.b_slots)
  end;
  Log.debug (fun m ->
      m "batch: %d events -> %d ops, %d recolored, %.3f touched, %d slots" n_events
        b.b_ops b.b_recolored b.b_touched_frac b.b_slots);
  b

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

let snapshot t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "fdlsp-service 1\n";
  Buffer.add_string b (Printf.sprintf "refine %d\n" (if t.refine then 1 else 0));
  Buffer.add_string b
    (Printf.sprintf "totals %d %d %d %d\n" t.t_batches t.t_events t.t_ops t.t_recolored);
  Buffer.add_string b
    (Printf.sprintf "alive %s\n"
       (String.init t.n (fun v -> if t.alive.(v) then '1' else '0')));
  Buffer.add_string b "graph\n";
  Buffer.add_string b (Io.to_string t.graph);
  Buffer.add_string b "schedule\n";
  Buffer.add_string b (Schedule.to_string t.sched);
  let payload = Buffer.contents b in
  payload ^ Printf.sprintf "checksum %s\n" (Digest.to_hex (Digest.string payload))

let restore ?(metrics = Metrics.null) ?(spans = Span.null) text =
  let fail fmt = Printf.ksprintf failwith fmt in
  let fail_s msg = fail "Service.restore: %s" msg in
  (* split off the trailing checksum line; everything before it is the
     checksummed payload, byte-exact *)
  let marker = "\nchecksum " in
  let idx =
    let rec last_from i best =
      if i + String.length marker > String.length text then best
      else if String.sub text i (String.length marker) = marker then last_from (i + 1) (Some i)
      else last_from (i + 1) best
    in
    last_from 0 None
  in
  let idx = match idx with Some i -> i | None -> fail_s "missing checksum line" in
  let payload = String.sub text 0 (idx + 1) in
  let tail = String.sub text (idx + 1) (String.length text - idx - 1) in
  let hex =
    match String.split_on_char ' ' (String.trim tail) with
    | [ "checksum"; h ] -> h
    | _ -> fail_s "malformed checksum line"
  in
  if not (String.equal (Digest.to_hex (Digest.string payload)) hex) then
    fail_s "checksum mismatch (snapshot tampered or truncated)";
  let lines = String.split_on_char '\n' payload in
  let refine_l, totals_l, alive_l, rest =
    match lines with
    | "fdlsp-service 1" :: r :: t :: a :: "graph" :: rest -> (r, t, a, rest)
    | _ -> fail_s "malformed header"
  in
  let refine =
    match refine_l with
    | "refine 0" -> false
    | "refine 1" -> true
    | _ -> fail_s "malformed refine line"
  in
  let t_batches, t_events, t_ops, t_recolored =
    match String.split_on_char ' ' totals_l with
    | "totals" :: parts -> (
        match List.map int_of_string_opt parts with
        | [ Some a; Some b; Some c; Some d ] -> (a, b, c, d)
        | _ -> fail_s "malformed totals line")
    | _ -> fail_s "malformed totals line"
  in
  let alive_bits =
    match String.split_on_char ' ' alive_l with
    | [ "alive"; bits ] -> bits
    | [ "alive" ] -> ""
    | _ -> fail_s "malformed alive line"
  in
  let graph_lines, sched_lines =
    let rec split acc = function
      | "schedule" :: rest -> (List.rev acc, rest)
      | l :: rest -> split (l :: acc) rest
      | [] -> fail_s "missing schedule section"
    in
    split [] rest
  in
  let g = Io.of_string (String.concat "\n" graph_lines) in
  let sched = Schedule.of_string g (String.concat "\n" sched_lines) in
  if String.length alive_bits <> Graph.n g then
    fail_s "alive bitmap does not match the graph";
  let alive =
    Array.init (Graph.n g) (fun v ->
        match alive_bits.[v] with
        | '1' -> true
        | '0' -> false
        | _ -> fail_s "malformed alive bitmap")
  in
  if not (Schedule.valid sched) then
    fail_s "embedded schedule is not a valid FDLSP schedule";
  Array.iteri
    (fun v live -> if (not live) && Graph.degree g v > 0 then
        fail_s (Printf.sprintf "dead node %d still has links" v))
    alive;
  {
    metrics;
    spans;
    refine;
    n = Graph.n g;
    alive;
    graph = g;
    sched;
    scratch = Conflict.scratch g;
    scratch_arcs = Arc.count g;
    t_batches;
    t_events;
    t_ops;
    t_recolored;
  }

let equal a b =
  a.n = b.n && a.refine = b.refine && a.alive = b.alive
  && Schedule.equal a.sched b.sched
  && a.t_batches = b.t_batches && a.t_events = b.t_events && a.t_ops = b.t_ops
  && a.t_recolored = b.t_recolored

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let json_ints l = String.concat "," (List.map string_of_int l)

let event_to_json = function
  | Join { node; neighbors } ->
      Printf.sprintf {|{"ev":"join","node":%d,"neighbors":[%s]}|} node
        (json_ints neighbors)
  | Leave node -> Printf.sprintf {|{"ev":"leave","node":%d}|} node
  | Move { node; neighbors } ->
      Printf.sprintf {|{"ev":"move","node":%d,"neighbors":[%s]}|} node
        (json_ints neighbors)
  | Degrade { u; v } -> Printf.sprintf {|{"ev":"degrade","u":%d,"v":%d}|} u v

let flush_json = {|{"ev":"flush"}|}

let line_of_string line =
  let fail fmt = Printf.ksprintf failwith fmt in
  let j = Json.parse line in
  let int_field k =
    match Json.member k j with
    | Some (Json.Num f) when Float.is_integer f -> int_of_float f
    | _ -> fail "Service.line_of_string: field %S must be an integer" k
  in
  let ints_field k =
    match Json.member k j with
    | Some (Json.Arr l) ->
        List.map
          (function
            | Json.Num f when Float.is_integer f -> int_of_float f
            | _ -> fail "Service.line_of_string: %S must hold integers" k)
          l
    | _ -> fail "Service.line_of_string: field %S must be an array" k
  in
  match Json.member "ev" j with
  | Some (Json.Str "join") ->
      `Event (Join { node = int_field "node"; neighbors = ints_field "neighbors" })
  | Some (Json.Str "leave") -> `Event (Leave (int_field "node"))
  | Some (Json.Str "move") ->
      `Event (Move { node = int_field "node"; neighbors = ints_field "neighbors" })
  | Some (Json.Str "degrade") -> `Event (Degrade { u = int_field "u"; v = int_field "v" })
  | Some (Json.Str "flush") -> `Flush
  | Some (Json.Str other) -> fail "Service.line_of_string: unknown event kind %S" other
  | _ -> fail "Service.line_of_string: missing \"ev\" field"

(* ------------------------------------------------------------------ *)
(* Synthetic churn                                                     *)
(* ------------------------------------------------------------------ *)

(* Events are generated against a throwaway copy of the service,
   advanced batch by batch, so every event is legal with respect to
   the state at its batch boundary (the same state [apply] validates
   against). *)
let synth t ~seed ~events ~batch =
  if batch < 1 then invalid_arg "Service.synth: batch must be >= 1";
  if events < 0 then invalid_arg "Service.synth: events must be >= 0";
  let copy = restore (snapshot t) in
  let rng = Random.State.make [| 0x5e12; seed |] in
  let gen_event () =
    let live = ref [] in
    for v = copy.n - 1 downto 0 do
      if copy.alive.(v) then live := v :: !live
    done;
    let live = Array.of_list !live in
    let nlive = Array.length live in
    let ghosts = ref [] in
    for v = copy.n - 1 downto 0 do
      if not copy.alive.(v) then ghosts := v :: !ghosts
    done;
    let ghosts = Array.of_list !ghosts in
    let m = Graph.m copy.graph in
    let sample_nbrs v =
      let want = 1 + Random.State.int rng 3 in
      List.init want (fun _ -> live.(Random.State.int rng nlive))
      |> List.filter (fun w -> w <> v)
      |> List.sort_uniq compare
    in
    let roll = Random.State.int rng 100 in
    if roll < 25 then
      let node =
        if Array.length ghosts > 0 && Random.State.bool rng then
          ghosts.(Random.State.int rng (Array.length ghosts))
        else copy.n
      in
      Some (Join { node; neighbors = (if nlive = 0 then [] else sample_nbrs node) })
    else if roll < 40 then
      if nlive > 2 then Some (Leave live.(Random.State.int rng nlive)) else None
    else if roll < 80 then
      if nlive = 0 then None
      else
        let v = live.(Random.State.int rng nlive) in
        Some (Move { node = v; neighbors = sample_nbrs v })
    else if m > 0 then
      let u, v = Graph.edge_endpoints copy.graph (Random.State.int rng m) in
      Some (Degrade { u; v })
    else None
  in
  let out = ref [] in
  let remaining = ref events in
  while !remaining > 0 do
    let k = min batch !remaining in
    remaining := !remaining - k;
    let evs = List.filter_map (fun _ -> gen_event ()) (List.init k Fun.id) in
    ignore (apply copy evs);
    out := evs :: !out
  done;
  List.rev !out
