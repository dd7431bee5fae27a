(** The FDLSP conflict relation on arcs (paper Definition 2).

    Arcs [a = (u,v)] and [b = (w,x)] of the bi-directed graph conflict —
    i.e. may not be scheduled in the same TDMA slot — iff they share an
    endpoint, or the head of one is adjacent to the tail of the other
    (the hidden terminal condition).  This single predicate subsumes ILP
    constraints (2), (4), (5), (6) of Section 4. *)

open Fdlsp_graph

val conflict : Graph.t -> Arc.id -> Arc.id -> bool
(** [conflict g a b] for distinct arcs; an arc never conflicts with
    itself ([conflict g a a = false]). *)

type scratch
(** Reusable dedup state for the conflict enumeration: a {!Stamp.t}
    over the arcs of the graph it was built for, plus one over colors
    for {!first_fit}.
    Build it once ({!scratch}) and pass it to every {!iter_conflicting}
    call over the same graph so the enumeration allocates nothing per
    arc.  A scratch is single-use at a time: the callback handed to
    {!iter_conflicting} must not itself call {!iter_conflicting} with
    the same scratch (the next clear would cut the outer enumeration
    short).  It is not thread-safe. *)

val scratch : Graph.t -> scratch
(** A fresh scratch for [g], usable for any arc of [g]. *)

val iter_conflicting : ?scratch:scratch -> Graph.t -> Arc.id -> (Arc.id -> unit) -> unit
(** [iter_conflicting g a f] calls [f] on every arc conflicting with
    [a], each exactly once, [a] excluded.  Runs in time proportional to
    the distance-2 arc neighborhood of [a].  Without [?scratch] a fresh
    one is allocated for the call (fine for one-off queries); loops over
    many arcs should build one {!scratch} and reuse it.  Raises
    [Invalid_argument] if the scratch was built over a graph with a
    different arc count. *)

val first_fit : scratch:scratch -> Graph.t -> Arc.id -> (Arc.id -> int) -> int
(** [first_fit ~scratch g a color_of] is the least color [c >= 0] that
    no arc conflicting with [a] holds, where [color_of b] is [b]'s color
    and a negative value means uncolored.  The forbidden colors are
    marked in the scratch, so the call allocates nothing once the
    scratch's color set has grown past the conflict degree.  Raises
    [Invalid_argument] if the scratch was built over a graph with a
    different arc count. *)

val conflicting : ?scratch:scratch -> Graph.t -> Arc.id -> Arc.id list
(** Same as {!iter_conflicting}, as an ascending list. *)

val degree_bound : Graph.t -> int
(** [2Δ² - 1], the Lemma 6 bound on the conflict degree of any arc. *)

val conflict_graph : Graph.t -> Graph.t
(** The conflict graph [G'] of Lemma 6: one node per arc of the
    bi-directed view of [g] (node ids = arc ids), edges between
    conflicting arcs.  Distance-2 edge coloring of [g] is exactly vertex
    coloring of [conflict_graph g].  Built by a counted two-pass CSR
    construction (one shared {!scratch}, rows emitted pre-sorted into
    the trusted graph constructor): O(m Δ²) time, no intermediate edge
    list. *)
