(** A clearable set of the ints [0 .. length - 1]: one cell per member,
    stamped with a generation counter.  {!clear} bumps the generation,
    which forgets every member in O(1); only the counter's rare wrap
    refills the cells.  This is the scratch behind the conflict
    enumeration, first-fit, bounded BFS and the arc-indexed tables,
    which clear their working set once per arc, node or message.  Not
    thread-safe. *)

type t

val create : int -> t
(** An empty set over [0 .. n - 1]. *)

val length : t -> int
(** The [n] it was created with. *)

val clear : t -> unit
val mark : t -> int -> unit
val marked : t -> int -> bool
