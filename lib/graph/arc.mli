(** Arcs of the bi-directed view of an undirected {!Graph.t}.

    FDLSP colors directed links: every undirected edge [{u,v}] of the
    network contributes the two arcs [u -> v] and [v -> u].  Arc ids are
    stable integers in [0 .. 2m-1]: edge [e] with canonical endpoints
    [(u, v)], [u < v], yields arc [2e] for [u -> v] and arc [2e+1] for
    [v -> u]. *)

type id = int

val count : Graph.t -> int
(** [2 * m]. *)

val of_edge : edge:int -> dir:int -> id
(** [dir] is 0 for the canonical direction, 1 for the reverse. *)

val edge : id -> int
val dir : id -> int

val tail : Graph.t -> id -> int
(** Transmitting endpoint. *)

val head : Graph.t -> id -> int
(** Receiving endpoint. *)

val rev : id -> id
(** The opposite arc of the same edge. *)

val make : Graph.t -> int -> int -> id
(** [make g u v] is the arc [u -> v]; raises [Invalid_argument] if
    [{u,v}] is not an edge of [g]. *)

val iter : Graph.t -> (id -> unit) -> unit
(** All arcs in id order. *)

val iter_out : Graph.t -> int -> (id -> unit) -> unit
(** [iter_out g v f] visits every arc with tail [v]. *)

val iter_in : Graph.t -> int -> (id -> unit) -> unit
(** [iter_in g v f] visits every arc with head [v]. *)

val iter_incident : Graph.t -> int -> (id -> unit) -> unit
(** Arcs with tail or head [v] (each arc once). *)

val pp : Graph.t -> Format.formatter -> id -> unit
(** Renders as ["u->v"]. *)

(** Hash table keyed by arc id.  The hash is the id itself, so lookups
    make no call to the polymorphic [Hashtbl.hash] or [compare]: the
    per-node color tables of the distributed schedulers live here. *)
module Tbl : sig
  include Hashtbl.S with type key = id

  val to_array : int t -> (id * int) array
  (** Every binding as an [(arc, value)] pair, in the table's iteration
      order, built straight into an array of the table's length. *)
end

(** A table with one cell per arc of one graph, for a working set that
    is built and consumed in one go: {!Dense.clear} forgets every binding
    in O(1), lookups and updates are plain array accesses, and the bound
    arcs can be listed without scanning the graph.  It costs three int
    arrays of length {!count}, so build one per run (or per domain) and
    clear it between uses.  Not thread-safe. *)
module Dense : sig
  type t

  val create : Graph.t -> t
  (** An empty table over the arcs of the graph. *)

  val clear : t -> unit
  val mem : t -> id -> bool

  val get : t -> id -> int
  (** The value bound to the arc, or [-1] when it is unbound: the
      uncolored mark of the schedulers' color tables. *)

  val replace : t -> id -> int -> unit

  val add_array : t -> (id * int) array -> unit
  (** [replace] every pair of the array, in order. *)

  val to_array : t -> (id * int) array
  (** Every binding, in the order the arcs were first bound since the
      last [clear]. *)
end
