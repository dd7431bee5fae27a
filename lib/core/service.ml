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

(* ------------------------------------------------------------------ *)
(* State: a compacted base plus a per-node overlay                     *)
(* ------------------------------------------------------------------ *)

(* A node's links as of now, held in the overlay once they differ from
   the base: sorted neighbour ids with the color of the out-arc
   [v -> nbr.(i)] and the in-arc [nbr.(i) -> v] of each.  Cells from
   [len] on are spare capacity; -1 marks an arc not yet colored. *)
type row = {
  mutable len : int;
  mutable nbr : int array;
  mutable out_c : int array;
  mutable in_c : int array;
}

(* The topology and colors live in two layers.  The base is the graph
   and schedule of the last compaction; neither is ever mutated, so a
   view handed out earlier stays valid.  The overlay holds a row for
   every node whose links or incident arc colors changed since, and a
   changed link dirties {e both} endpoints — so a clean node's base row
   is exactly its current row, and each node has one place to read.
   Counters over colors and degrees answer [num_slots], the largest
   color and Δ without a scan. *)
type t = {
  metrics : Metrics.sink;
  spans : Span.sink;
  refine : bool;
  mutable n : int;
  mutable alive : bool array;  (* cells [0 .. n-1] are meaningful *)
  mutable live : int;
  mutable graph : Graph.t;  (* base topology *)
  mutable sched : Schedule.t;  (* base colors, indexed by arc ids of [graph] *)
  rows : (int, row) Hashtbl.t;  (* the overlay *)
  mutable dirty : Bytes.t;
      (* '\001' for nodes with a row; every id >= [Graph.n graph] has one *)
  mutable overlay : int;  (* sum over rows of 1 + len *)
  mutable arcs : int;
  mutable color_count : int array;  (* arcs per color *)
  mutable slots : int;  (* colors in use *)
  mutable max_color : int;  (* largest color in use, -1 if none *)
  mutable mark : int array;  (* first-fit scratch over the color range *)
  mutable mark_gen : int;
  mutable deg_count : int array;  (* nodes per degree, ghosts included *)
  mutable max_deg : int;
  mutable t_batches : int;
  mutable t_events : int;
  mutable t_ops : int;
  mutable t_recolored : int;
}

(* [apply] compacts on its own once the overlay (rows plus the links
   they hold) outgrows a sixteenth of the base (nodes plus arcs) by more
   than a fixed slack, so a caller that never reads a view — the serve
   loop, a WAL replay — holds little more than the base.  The slack
   keeps small services from compacting after every batch. *)
let compact_fraction = 16
let compact_slack = 512

let grow a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_color t c =
  if c >= 0 then begin
    if c + 2 > Array.length t.color_count then begin
      t.color_count <- grow t.color_count (c + 2) 0;
      t.mark <- grow t.mark (c + 2) 0
    end;
    if t.color_count.(c) = 0 then t.slots <- t.slots + 1;
    t.color_count.(c) <- t.color_count.(c) + 1;
    if c > t.max_color then t.max_color <- c
  end

let drop_color t c =
  if c >= 0 then begin
    t.color_count.(c) <- t.color_count.(c) - 1;
    if t.color_count.(c) = 0 then begin
      t.slots <- t.slots - 1;
      while t.max_color >= 0 && t.color_count.(t.max_color) = 0 do
        t.max_color <- t.max_color - 1
      done
    end
  end

let move_degree t d d' =
  if d' >= Array.length t.deg_count then t.deg_count <- grow t.deg_count (d' + 1) 0;
  t.deg_count.(d) <- t.deg_count.(d) - 1;
  t.deg_count.(d') <- t.deg_count.(d') + 1;
  if d' > t.max_deg then t.max_deg <- d'
  else
    while t.max_deg > 0 && t.deg_count.(t.max_deg) = 0 do
      t.max_deg <- t.max_deg - 1
    done

let of_base ~metrics ~spans ~refine ~alive ~totals:(b, e, o, r) g sched =
  let n = Graph.n g in
  let t =
    {
      metrics;
      spans;
      refine;
      n;
      alive;
      live = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive;
      graph = g;
      sched;
      rows = Hashtbl.create 64;
      dirty = Bytes.make n '\000';
      overlay = 0;
      arcs = Arc.count g;
      color_count = Array.make 2 0;
      slots = 0;
      max_color = -1;
      mark = Array.make 2 0;
      mark_gen = 0;
      deg_count = Array.make 1 0;
      max_deg = 0;
      t_batches = b;
      t_events = e;
      t_ops = o;
      t_recolored = r;
    }
  in
  Arc.iter g (fun a -> add_color t (Schedule.get sched a));
  for v = 0 to n - 1 do
    t.deg_count.(0) <- t.deg_count.(0) + 1;
    move_degree t 0 (Graph.degree g v)
  done;
  t

let create ?(metrics = Metrics.null) ?(spans = Span.null) ?(refine = true) sched =
  if not (Schedule.valid sched) then
    invalid_arg "Service.create: schedule does not validate";
  let g = Schedule.graph sched in
  of_base ~metrics ~spans ~refine ~alive:(Array.make (Graph.n g) true) ~totals:(0, 0, 0, 0) g
    (Schedule.copy sched)

(* -- rows -- *)

let is_dirty t v = Bytes.get t.dirty v <> '\000'

(* Position of [w] in the row, or -1. *)
let row_find r w =
  let lo = ref 0 and hi = ref (r.len - 1) and pos = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = r.nbr.(mid) in
    if x = w then begin
      pos := mid;
      lo := !hi + 1
    end
    else if x < w then lo := mid + 1
    else hi := mid - 1
  done;
  !pos

let row_remove r i =
  let tail = r.len - i - 1 in
  Array.blit r.nbr (i + 1) r.nbr i tail;
  Array.blit r.out_c (i + 1) r.out_c i tail;
  Array.blit r.in_c (i + 1) r.in_c i tail;
  r.len <- r.len - 1

(* Inserts [w] with both arcs uncolored. *)
let row_insert r w =
  if r.len = Array.length r.nbr then begin
    r.nbr <- grow r.nbr 4 0;
    r.out_c <- grow r.out_c 4 0;
    r.in_c <- grow r.in_c 4 0
  end;
  let i = ref r.len in
  while !i > 0 && r.nbr.(!i - 1) > w do
    decr i
  done;
  let i = !i and tail = r.len - !i in
  Array.blit r.nbr i r.nbr (i + 1) tail;
  Array.blit r.out_c i r.out_c (i + 1) tail;
  Array.blit r.in_c i r.in_c (i + 1) tail;
  r.nbr.(i) <- w;
  r.out_c.(i) <- Schedule.uncolored;
  r.in_c.(i) <- Schedule.uncolored;
  r.len <- r.len + 1

(* [iter_row t v f] calls [f w out in] for every link [{v, w}], [w]
   ascending, with the colors of [v -> w] and [w -> v]. *)
let iter_row t v f =
  if is_dirty t v then begin
    let r = Hashtbl.find t.rows v in
    for i = 0 to r.len - 1 do
      f r.nbr.(i) r.out_c.(i) r.in_c.(i)
    done
  end
  else
    Graph.iter_incident_edges t.graph v (fun e w ->
        let out = Arc.of_edge ~edge:e ~dir:(if v < w then 0 else 1) in
        f w (Schedule.get t.sched out) (Schedule.get t.sched (Arc.rev out)))

(* The row of [v], copied out of the base on first write. *)
let own_row t v =
  if is_dirty t v then Hashtbl.find t.rows v
  else begin
    let d = if v < Graph.n t.graph then Graph.degree t.graph v else 0 in
    let r = { len = 0; nbr = Array.make d 0; out_c = Array.make d 0; in_c = Array.make d 0 } in
    if d > 0 then
      iter_row t v (fun w o i ->
          r.nbr.(r.len) <- w;
          r.out_c.(r.len) <- o;
          r.in_c.(r.len) <- i;
          r.len <- r.len + 1);
    Bytes.set t.dirty v '\001';
    Hashtbl.replace t.rows v r;
    t.overlay <- t.overlay + 1 + d;
    r
  end

(* Color of arc [u -> v], -1 when [{u, v}] is not a link. *)
let arc_color t u v =
  if is_dirty t u then
    let r = Hashtbl.find t.rows u in
    let i = row_find r v in
    if i < 0 then -1 else r.out_c.(i)
  else
    match Graph.edge_index t.graph u v with
    | None -> -1
    | Some e -> Schedule.get t.sched (Arc.of_edge ~edge:e ~dir:(if u < v then 0 else 1))

let has_link t u v =
  if is_dirty t u then row_find (Hashtbl.find t.rows u) v >= 0 else Graph.mem_edge t.graph u v

let set_arc t u v c =
  let ru = own_row t u and rv = own_row t v in
  ru.out_c.(row_find ru v) <- c;
  rv.in_c.(row_find rv u) <- c

let link t u v =
  let ru = own_row t u and rv = own_row t v in
  row_insert ru v;
  row_insert rv u;
  move_degree t (ru.len - 1) ru.len;
  move_degree t (rv.len - 1) rv.len;
  t.arcs <- t.arcs + 2;
  t.overlay <- t.overlay + 2

let unlink t u v =
  let ru = own_row t u and rv = own_row t v in
  let i = row_find ru v in
  drop_color t ru.out_c.(i);
  drop_color t ru.in_c.(i);
  row_remove ru i;
  row_remove rv (row_find rv u);
  move_degree t (ru.len + 1) ru.len;
  move_degree t (rv.len + 1) rv.len;
  t.arcs <- t.arcs - 2;
  t.overlay <- t.overlay - 2

let unlink_all t v =
  let r = own_row t v in
  while r.len > 0 do
    unlink t v r.nbr.(r.len - 1)
  done

(* -- compaction -- *)

(* Folds the overlay into a new base: one merge of the base edges that
   have no dirty endpoint with the sorted edges of the dirty rows, into
   the trusted CSR constructor.  Only the overlay's edges are sorted.
   The result has exactly the arc ids a from-scratch [Graph.create] of
   the same edge set would assign. *)
let compact t =
  if Hashtbl.length t.rows > 0 || Graph.n t.graph <> t.n then begin
    let base = t.graph and bsched = t.sched in
    let dirty_edges = ref [] in
    let add e = dirty_edges := e :: !dirty_edges in
    Hashtbl.iter
      (fun v r ->
        for i = 0 to r.len - 1 do
          let w = r.nbr.(i) in
          (* an edge between two dirty nodes is taken from its lower end *)
          if v < w then add (v, w, r.out_c.(i), r.in_c.(i))
          else if not (is_dirty t w) then add (w, v, r.in_c.(i), r.out_c.(i))
        done)
      t.rows;
    let dirty_edges = Array.of_list !dirty_edges in
    Array.sort
      (fun (a, b, _, _) (c, d, _, _) -> if a <> c then Int.compare a c else Int.compare b d)
      dirty_edges;
    let m = t.arcs / 2 in
    let edges = Array.make m (0, 0) and colors = Array.make (2 * m) Schedule.uncolored in
    let k = ref 0 and j = ref 0 in
    let put e c0 c1 =
      edges.(!k) <- e;
      colors.(2 * !k) <- c0;
      colors.((2 * !k) + 1) <- c1;
      incr k
    in
    let take_dirty () =
      let u, v, c0, c1 = dirty_edges.(!j) in
      put (u, v) c0 c1;
      incr j
    in
    for e = 0 to Graph.m base - 1 do
      let ((u, v) as uv) = Graph.edge_endpoints base e in
      if not (is_dirty t u || is_dirty t v) then begin
        while
          !j < Array.length dirty_edges
          &&
          let a, b, _, _ = dirty_edges.(!j) in
          a < u || (a = u && b < v)
        do
          take_dirty ()
        done;
        put uv (Schedule.get bsched (2 * e)) (Schedule.get bsched ((2 * e) + 1))
      end
    done;
    while !j < Array.length dirty_edges do
      take_dirty ()
    done;
    let g = Graph.of_sorted_edges_unchecked ~n:t.n edges in
    t.graph <- g;
    t.sched <- Schedule.of_colors g colors;
    Hashtbl.iter (fun v _ -> Bytes.set t.dirty v '\000') t.rows;
    Hashtbl.reset t.rows;
    t.overlay <- 0
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let nodes t = t.n
let live t = t.live

let alive t v =
  if v < 0 || v >= t.n then invalid_arg "Service.alive: node out of range";
  t.alive.(v)

let graph t =
  compact t;
  t.graph

let schedule t =
  compact t;
  t.sched

let num_slots t = t.slots

let totals t =
  { batches = t.t_batches; events = t.t_events; ops = t.t_ops; recolored = t.t_recolored }

let slot_of_arc t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || u = v then None
  else
    let c = arc_color t u v in
    if c < 0 then None else Some c

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

let current_neighbors t v =
  let acc = ref [] in
  iter_row t v (fun w _ _ -> acc := w :: !acc);
  List.rev !acc

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
     fall through so [prepare_ops] still raises on them. *)
  let noop_move (v, nbrs_l) =
    v < t.n && t.alive.(v)
    && List.for_all (fun w -> w >= 0 && w < t.n && w <> v) nbrs_l
    && List.filter (fun w -> t.alive.(w)) nbrs_l = current_neighbors t v
  in
  if
    leaves = [] && joins = [] && degrades = [] && moves <> []
    && List.for_all (function Op_move (v, l) -> noop_move (v, l) | _ -> false) moves
  then []
  else leaves @ moves @ joins @ degrades

(* ------------------------------------------------------------------ *)
(* Batch repair                                                        *)
(* ------------------------------------------------------------------ *)

(* Calls [f] on the color of every arc conflicting with [x -> y] (-1
   for uncolored ones), the arc itself excluded: the arcs incident on
   [x] or [y], the out-arcs of [y]'s neighbours and the in-arcs of
   [x]'s neighbours — {!Conflict.iter_conflicting}'s neighbourhood, read
   from the rows.  A color may be reported more than once. *)
let iter_conflict_colors t x y f =
  iter_row t x (fun z o i ->
      if z <> y then f o;
      f i);
  iter_row t y (fun z o i ->
      f o;
      if z <> x then f i);
  iter_row t y (fun w _ _ -> iter_row t w (fun z o _ -> if w <> x || z <> y then f o));
  iter_row t x (fun w _ _ -> iter_row t w (fun z _ i -> if w <> y || z <> x then f i))

(* {!Greedy.first_free} on the current graph: the smallest color no
   colored conflicting arc uses.  [mark] spans at least [max_color + 2]
   cells, so the scan stops inside it. *)
let first_free t x y =
  t.mark_gen <- t.mark_gen + 1;
  let gen = t.mark_gen and mark = t.mark in
  iter_conflict_colors t x y (fun c -> if c >= 0 then mark.(c) <- gen);
  let c = ref 0 in
  while mark.(!c) = gen do
    incr c
  done;
  !c

(* Survivor links (no endpoint dead, reset, or degraded) keep their
   colors; every link of a reset (joined/moved) node is fresh and its
   two arcs are first-fit recolored in one pass.  That pass alone
   leaves a Definition-2 valid schedule, given a valid one before the
   batch:
   (a) removing links (leaves, resets, degrades) never creates a
       conflict: conflicts only need adjacency, and removal takes some
       away;
   (b) every link the batch adds has a reset endpoint, and [unlink_all]
       has stripped every reset node of its old links, so no surviving
       arc touches a reset node.  Two arcs that did not conflict come
       to conflict only through a new link joining an endpoint of one
       to an endpoint of the other, so no two surviving arcs can;
   (c) fresh arcs are first-fit one at a time on the final topology
       against every colored conflicting arc, so each pair involving a
       fresh arc differs, whichever of the two was colored second;
   (d) refine recolors with the same [first_free], so it keeps (c).
   The refine pass enforces the Lemma-6 budget [Bounds.upper] that
   carried colors could otherwise outgrow as the graph shrinks.  Every
   step reads and writes only the rows of the nodes the batch touches;
   the coloring is the one a rebuild of the whole post-batch graph
   followed by the same passes would produce.

   [prepare_ops] only reads [t]: it validates the batch, raising
   [Invalid_argument] on the first bad op, and returns the repair that
   applies it and cannot fail. *)
let prepare_ops t ops ~n_events =
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
  List.iter
    (fun (u, v) ->
      if u >= t.n || v >= t.n || not (has_link t u v) then
        invalid "Service: degrade names a missing link {%d,%d}" u v)
    degrades;
  let resets = moves @ joins in
  List.iter
    (fun (v, nbrs) ->
      List.iter
        (fun w ->
          if w < 0 || w >= n' then
            invalid "Service: node %d links to out-of-range neighbor %d" v w;
          if w = v then invalid "Service: node %d links to itself" v)
        nbrs)
    resets;
  fun () ->
  Span.span t.spans "service.rebuild" (fun () ->
      if n' > Array.length t.alive then begin
        t.alive <- grow t.alive n' false;
        let d = Bytes.make (Array.length t.alive) '\000' in
        Bytes.blit t.dirty 0 d 0 (Bytes.length t.dirty);
        t.dirty <- d
      end;
      t.deg_count.(0) <- t.deg_count.(0) + n' - t.n;
      t.n <- n';
      List.iter
        (fun v ->
          unlink_all t v;
          t.alive.(v) <- false;
          t.live <- t.live - 1)
        leaves;
      List.iter
        (fun (v, _) ->
          unlink_all t v;
          if not t.alive.(v) then begin
            t.alive.(v) <- true;
            t.live <- t.live + 1
          end)
        resets;
      List.iter (fun (u, v) -> unlink t u v) degrades;
      (* a leave in the same batch wins over links to the leaver *)
      List.iter
        (fun (v, nbrs) ->
          List.iter (fun w -> if t.alive.(w) && not (has_link t v w) then link t v w) nbrs)
        resets);
  (* coarse repair: first-fit every arc incident to a reset node *)
  let touched : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let recolored = ref 0 in
  let recolor x y =
    let c = first_free t x y in
    drop_color t (arc_color t x y);
    set_arc t x y c;
    add_color t c;
    Hashtbl.replace touched (x, y) ();
    incr recolored
  in
  let reset_nodes = List.sort compare (List.map fst resets) in
  Span.span t.spans "service.recolor" (fun () ->
      List.iter
        (fun v ->
          let r = own_row t v in
          for i = 0 to r.len - 1 do
            let w = r.nbr.(i) in
            if r.out_c.(i) < 0 then recolor v w;
            if r.in_c.(i) < 0 then recolor w v
          done)
        reset_nodes);
  (* refine: pull carried colors back under the current slot budget,
     [Bounds.upper] = 2Δ², in arc-id order of the post-batch graph *)
  if t.refine then
    Span.span t.spans "service.refine" (fun () ->
        let ub = 2 * t.max_deg * t.max_deg in
        if t.max_color >= ub then begin
          compact t;
          let g = t.graph and sched = t.sched in
          Arc.iter g (fun a ->
              if Schedule.get sched a >= ub then recolor (Arc.tail g a) (Arc.head g a))
        end);
  if t.overlay > compact_slack + ((Arc.count t.graph + Graph.n t.graph) / compact_fraction)
  then Span.span t.spans "service.rebuild" (fun () -> compact t);
  let b_touched = Hashtbl.length touched in
  {
    b_events = n_events;
    b_ops = List.length ops;
    b_recolored = !recolored;
    b_touched;
    b_touched_frac =
      (if t.arcs = 0 then 0. else float_of_int b_touched /. float_of_int t.arcs);
    b_slots = t.slots;
  }

let apply t events =
  let n_events = List.length events in
  let ops = Span.span t.spans "service.coalesce" (fun () -> coalesce t events) in
  let b =
    Span.span t.spans "service.repair" @@ fun () ->
    (* validate before the timer starts: a batch [apply] rejects is not
       a repair, so it must not reach the repair histogram *)
    let repair = match ops with [] -> None | ops -> Some (prepare_ops t ops ~n_events) in
    Metrics.timed t.metrics Name.service_repair (fun () ->
        match repair with
        | None ->
            (* empty net batch: fast path, zero arcs touched *)
            {
              b_events = n_events;
              b_ops = 0;
              b_recolored = 0;
              b_touched = 0;
              b_touched_frac = 0.;
              b_slots = t.slots;
            }
        | Some repair -> repair ())
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
  compact t;
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
  let k = String.length marker in
  (* the last occurrence, found backwards without allocating *)
  let rec matches i j = j = k || (text.[i + j] = marker.[j] && matches i (j + 1)) in
  let rec last_from i =
    if i < 0 then None else if matches i 0 then Some i else last_from (i - 1)
  in
  let idx =
    match last_from (String.length text - k) with
    | Some i -> i
    | None -> fail_s "missing checksum line"
  in
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
  of_base ~metrics ~spans ~refine ~alive ~totals:(t_batches, t_events, t_ops, t_recolored) g
    sched

let equal a b =
  compact a;
  compact b;
  let rec same_alive v = v = a.n || (a.alive.(v) = b.alive.(v) && same_alive (v + 1)) in
  a.n = b.n && a.refine = b.refine && same_alive 0
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
   against).  That state changes only at the boundary, so the live and
   ghost populations are listed once per batch, and the graph is
   compacted only for a batch that draws a degrade. *)
let synth t ~seed ~events ~batch =
  if batch < 1 then invalid_arg "Service.synth: batch must be >= 1";
  if events < 0 then invalid_arg "Service.synth: events must be >= 0";
  let copy = restore (snapshot t) in
  let rng = Random.State.make [| 0x5e12; seed |] in
  let gen_batch k =
    let live = ref [] and ghosts = ref [] in
    for v = copy.n - 1 downto 0 do
      if copy.alive.(v) then live := v :: !live else ghosts := v :: !ghosts
    done;
    let live = Array.of_list !live and ghosts = Array.of_list !ghosts in
    let nlive = Array.length live in
    let m = copy.arcs / 2 in
    let g = lazy (graph copy) in
    let sample_nbrs v =
      let want = 1 + Random.State.int rng 3 in
      List.init want (fun _ -> live.(Random.State.int rng nlive))
      |> List.filter (fun w -> w <> v)
      |> List.sort_uniq compare
    in
    let gen_event () =
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
        let u, v = Graph.edge_endpoints (Lazy.force g) (Random.State.int rng m) in
        Some (Degrade { u; v })
      else None
    in
    List.filter_map (fun _ -> gen_event ()) (List.init k Fun.id)
  in
  let out = ref [] in
  let remaining = ref events in
  while !remaining > 0 do
    let k = min batch !remaining in
    remaining := !remaining - k;
    let evs = gen_batch k in
    ignore (apply copy evs);
    out := evs :: !out
  done;
  List.rev !out
