(* Geometric churn for the serve workloads, owned by the benchmark.

   The model keeps node positions, the alive set and the exact link set
   the service should hold.  Joins and moves place a node at a position
   and link it to every live node within the radius after the whole
   batch has been placed, so the topology stays a unit-disk graph minus
   the links degrades have cut.  Each node takes at most one op per
   batch.  A membership event is a join while fewer nodes are live
   than at the start and a leave otherwise, so the live node count (and
   with it the cost of a batch) stays put however long a run lasts.

   [Service.synth] cannot drive these workloads: it spends O(n) per
   generated event plus a full apply on a copy, and its moves pick
   neighbours uniformly over the whole graph. *)

open Fdlsp_graph
open Fdlsp_core

(* A set of node ids with O(1) insert, remove and uniform pick. *)
module Pool = struct
  type t = { mutable items : int array; mutable len : int; mutable where : int array }

  let create () = { items = Array.make 16 0; len = 0; where = Array.make 16 (-1) }

  let grow a n fill =
    if n <= Array.length a then a
    else
      let b = Array.make (max n (2 * Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b

  let add p v =
    p.where <- grow p.where (v + 1) (-1);
    if p.where.(v) < 0 then begin
      p.items <- grow p.items (p.len + 1) 0;
      p.items.(p.len) <- v;
      p.where.(v) <- p.len;
      p.len <- p.len + 1
    end

  let remove p v =
    let i = p.where.(v) in
    let last = p.items.(p.len - 1) in
    p.items.(i) <- last;
    p.where.(last) <- i;
    p.where.(v) <- -1;
    p.len <- p.len - 1

  let pick p rng = p.items.(Random.State.int rng p.len)
end

type t = {
  rng : Random.State.t;
  side : float;
  radius : float;
  cells : int;  (** grid cells per side; a cell is [radius] wide *)
  grid : int list array;  (** live nodes per cell *)
  mutable pos : Geometry.point array;
  mutable adj : int list array;
  mutable n : int;  (** id space, dead ghosts included *)
  target : int;  (** live nodes at the start *)
  live : Pool.t;
  dead : Pool.t;
  mutable stamp : int array;  (** batch number of a node's last op *)
  mutable batch_no : int;
}

let cell t (p : Geometry.point) =
  let c x = max 0 (min (t.cells - 1) (int_of_float (x /. t.radius))) in
  (c p.x * t.cells) + c p.y

let create ~seed ~side ~radius (g, points) =
  let n = Graph.n g in
  let cells = int_of_float (Float.ceil (side /. radius)) + 1 in
  let t =
    {
      rng = Random.State.make [| seed; 0x6e0 |];
      side;
      radius;
      cells;
      grid = Array.make (cells * cells) [];
      pos = Array.copy points;
      adj = Array.init n (fun v -> Array.to_list (Graph.neighbors g v));
      n;
      target = n;
      live = Pool.create ();
      dead = Pool.create ();
      stamp = Array.make n (-1);
      batch_no = 0;
    }
  in
  for v = n - 1 downto 0 do
    Pool.add t.live v;
    let c = cell t points.(v) in
    t.grid.(c) <- v :: t.grid.(c)
  done;
  t

let ensure t n =
  if n > Array.length t.pos then begin
    let cap = max n (2 * Array.length t.pos) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.pos <- grow t.pos { Geometry.x = 0.; y = 0. };
    t.adj <- grow t.adj [];
    t.stamp <- grow t.stamp (-1)
  end

let unlink t u v =
  t.adj.(u) <- List.filter (( <> ) v) t.adj.(u);
  t.adj.(v) <- List.filter (( <> ) u) t.adj.(v)

let drop_links t v =
  List.iter (fun w -> t.adj.(w) <- List.filter (( <> ) v) t.adj.(w)) t.adj.(v);
  t.adj.(v) <- []

let unplace t v =
  let c = cell t t.pos.(v) in
  t.grid.(c) <- List.filter (( <> ) v) t.grid.(c)

let place t v p =
  t.pos.(v) <- p;
  let c = cell t p in
  t.grid.(c) <- v :: t.grid.(c)

(* Live nodes within the radius of [v]'s position (the 3x3 cell
   neighbourhood holds every candidate; same [<=] test as
   [Geometry.udg_edges]). *)
let in_range t v =
  let p = t.pos.(v) in
  let r2 = t.radius *. t.radius in
  let c = cell t p in
  let cx = c / t.cells and cy = c mod t.cells in
  let acc = ref [] in
  for x = max 0 (cx - 1) to min (t.cells - 1) (cx + 1) do
    for y = max 0 (cy - 1) to min (t.cells - 1) (cy + 1) do
      List.iter
        (fun w -> if w <> v && Geometry.dist2 p t.pos.(w) <= r2 then acc := w :: !acc)
        t.grid.((x * t.cells) + y)
    done
  done;
  !acc

let uniform_point t =
  { Geometry.x = Random.State.float t.rng t.side; y = Random.State.float t.rng t.side }

(* A local step of at most one radius per axis, kept in the square. *)
let nearby_point t (p : Geometry.point) =
  let step x =
    let x = x +. Random.State.float t.rng (2. *. t.radius) -. t.radius in
    Float.min (Float.max x 0.) (Float.pred t.side)
  in
  { Geometry.x = step p.x; y = step p.y }

type plan = P_join of int | P_leave of int | P_move of int | P_degrade of int * int

(* One batch of [size] events, applied to the model.  Event kinds are
   drawn 40 % membership (join or leave), 40 % move, 20 % degrade. *)
let batch t ~size =
  t.batch_no <- t.batch_no + 1;
  let fresh = ref 0 in
  let free v = t.stamp.(v) <> t.batch_no in
  let take v = t.stamp.(v) <- t.batch_no in
  (* a free live node, or [None] after a few collisions *)
  let rec free_live tries =
    if tries = 0 || t.live.Pool.len = 0 then None
    else
      let v = Pool.pick t.live t.rng in
      if free v then Some v else free_live (tries - 1)
  in
  let plan_one () =
    let k = Random.State.int t.rng 100 in
    if k < 40 && t.live.Pool.len < t.target then begin
      let ghost =
        if t.dead.Pool.len = 0 then None
        else
          let v = Pool.pick t.dead t.rng in
          if free v then Some v else None
      in
      let v =
        match ghost with
        | Some v -> v
        | None ->
            let v = t.n + !fresh in
            incr fresh;
            ensure t (v + 1);
            v
      in
      take v;
      Some (P_join v)
    end
    else if k < 40 then Option.map (fun v -> take v; P_leave v) (free_live 8)
    else if k < 80 then
      Option.map (fun v -> take v; P_move v) (free_live 8)
    else
      match free_live 8 with
      | None -> None
      | Some u -> (
          match List.filter free t.adj.(u) with
          | [] -> None
          | ws ->
              let w = List.nth ws (Random.State.int t.rng (List.length ws)) in
              take u;
              take w;
              Some (P_degrade (u, w)))
  in
  let rec plans acc k =
    if k = 0 then List.rev acc
    else match plan_one () with Some p -> plans (p :: acc) (k - 1) | None -> plans acc k
  in
  let plans = plans [] size in
  (* place every node first, so neighbour lists see post-batch positions *)
  List.iter
    (function
      | P_leave v ->
          unplace t v;
          drop_links t v;
          Pool.remove t.live v;
          Pool.add t.dead v
      | P_move v ->
          unplace t v;
          drop_links t v;
          place t v (nearby_point t t.pos.(v))
      | P_join v ->
          if v < t.n then Pool.remove t.dead v;
          Pool.add t.live v;
          place t v (uniform_point t)
      | P_degrade (u, w) -> unlink t u w)
    plans;
  t.n <- t.n + !fresh;
  let linked v =
    let ws = in_range t v in
    List.iter
      (fun w ->
        if not (List.mem w t.adj.(v)) then begin
          t.adj.(v) <- w :: t.adj.(v);
          t.adj.(w) <- v :: t.adj.(w)
        end)
      ws;
    ws
  in
  List.map
    (function
      | P_leave v -> Service.Leave v
      | P_move v -> Service.Move { node = v; neighbors = linked v }
      | P_join v -> Service.Join { node = v; neighbors = linked v }
      | P_degrade (u, w) -> Service.Degrade { u; v = w })
    plans

(* [k] live links to query, as parallel arrays of endpoints. *)
let query_pairs t k =
  let us = Array.make k 0 and vs = Array.make k 0 in
  let i = ref 0 in
  while !i < k do
    let u = Pool.pick t.live t.rng in
    match t.adj.(u) with
    | [] -> ()
    | ws ->
        us.(!i) <- u;
        vs.(!i) <- List.nth ws (Random.State.int t.rng (List.length ws));
        incr i
  done;
  (us, vs)

let graph t =
  let edges = ref [] in
  for u = 0 to t.n - 1 do
    List.iter (fun w -> if u < w then edges := (u, w) :: !edges) t.adj.(u)
  done;
  Graph.create ~n:t.n !edges
