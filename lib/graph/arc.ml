type id = int

let count g = 2 * Graph.m g
let of_edge ~edge ~dir = (2 * edge) + dir
let edge a = a / 2
let dir a = a land 1

let tail g a =
  let u, v = Graph.edge_endpoints g (edge a) in
  if dir a = 0 then u else v

let head g a =
  let u, v = Graph.edge_endpoints g (edge a) in
  if dir a = 0 then v else u

let rev a = a lxor 1

let make g u v =
  match Graph.edge_index g u v with
  | None -> invalid_arg "Arc.make: not an edge"
  | Some e ->
      let cu, _ = Graph.edge_endpoints g e in
      of_edge ~edge:e ~dir:(if u = cu then 0 else 1)

let iter g f =
  for a = 0 to count g - 1 do
    f a
  done

(* The incident-edge iterator already hands over the edge index, and the
   canonical direction of edge {v, w} is known from v < w alone — so arc
   ids are assembled directly, with no binary search through [make]. *)
let iter_out g v f =
  Graph.iter_incident_edges g v (fun e w -> f (of_edge ~edge:e ~dir:(if v < w then 0 else 1)))

let iter_in g v f =
  Graph.iter_incident_edges g v (fun e w -> f (of_edge ~edge:e ~dir:(if w < v then 0 else 1)))

let iter_incident g v f =
  Graph.iter_incident_edges g v (fun e w ->
      let out = of_edge ~edge:e ~dir:(if v < w then 0 else 1) in
      f out;
      f (rev out))

let pp g ppf a = Format.fprintf ppf "%d->%d" (tail g a) (head g a)

(* Arc ids are small non-negative ints, so the identity is a good hash
   and the table never calls the polymorphic [caml_hash]/[compare]. *)
module Tbl = struct
  include Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash (a : int) = a land max_int
  end)

  let to_array t =
    let out = Array.make (length t) (0, 0) in
    let i = ref 0 in
    iter
      (fun a c ->
        out.(!i) <- (a, c);
        incr i)
      t;
    out
end

(* One value cell per arc of the graph; [bound] is the set of arcs
   bound since the last [clear], which forgets them all in O(1), and
   [keys] lists them in insertion order. *)
module Dense = struct
  type t = { bound : Stamp.t; value : int array; keys : int array; mutable len : int }

  let create g =
    let k = count g in
    { bound = Stamp.create k; value = Array.make k 0; keys = Array.make k 0; len = 0 }

  let clear t =
    t.len <- 0;
    Stamp.clear t.bound

  let mem t a = Stamp.marked t.bound a
  let get t a = if Stamp.marked t.bound a then t.value.(a) else -1

  let replace t a v =
    if not (Stamp.marked t.bound a) then begin
      Stamp.mark t.bound a;
      t.keys.(t.len) <- a;
      t.len <- t.len + 1
    end;
    t.value.(a) <- v

  let add_array t table = Array.iter (fun (a, v) -> replace t a v) table

  let to_array t =
    Array.init t.len (fun i ->
        let a = t.keys.(i) in
        (a, t.value.(a)))
end
