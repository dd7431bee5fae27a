(* Tests for the coloring substrate: the conflict relation, schedules and
   the validator, the paper's bounds, greedy coloring, Misra-Gries edge
   coloring, and the exact DSATUR solver. *)

open Fdlsp_graph
open Fdlsp_color

let rng = Generators.rng [| 0xC0105; 7 |]

(* Graph arbitraries live in Generators (shared across the suite). *)
let arb_gnp ?(max_n = 12) () = Generators.arb_gnp ~max_n ()
let arb_udg = Generators.arb_udg
let qtest name ?(count = 100) arb prop = Generators.qtest name ~count arb prop

(* ------------------------------------------------------------------ *)
(* Conflict relation                                                   *)
(* ------------------------------------------------------------------ *)

(* Figure 1/2 of the paper: the path u - v - w - x. *)
let fig2 () = Gen.path 4 (* 0=u 1=v 2=w 3=x *)

let test_conflict_hidden_terminal () =
  let g = fig2 () in
  let uv = Arc.make g 0 1 and wx = Arc.make g 2 3 in
  let vu = Arc.make g 1 0 and xw = Arc.make g 3 2 in
  (* u->v clashes with w->x: v would hear both u and w *)
  Alcotest.(check bool) "u->v vs w->x" true (Conflict.conflict g uv wx);
  (* v->u and w->x may share a slot: senders v,w adjacent but both transmit *)
  Alcotest.(check bool) "v->u vs w->x fine" false (Conflict.conflict g vu wx);
  (* u->v and x->w may share a slot: both receivers are interior, check:
     head(u->v)=v ~ tail(x->w)=x? no.  head(x->w)=w ~ tail(u->v)=u? no. *)
  Alcotest.(check bool) "u->v vs x->w fine" false (Conflict.conflict g uv xw)

let test_conflict_shared_endpoint () =
  let g = Gen.star 4 in
  let a = Arc.make g 0 1 and b = Arc.make g 0 2 in
  let c = Arc.make g 1 0 and d = Arc.make g 2 0 in
  Alcotest.(check bool) "two out" true (Conflict.conflict g a b);
  Alcotest.(check bool) "out vs in" true (Conflict.conflict g a d);
  Alcotest.(check bool) "two in" true (Conflict.conflict g c d);
  Alcotest.(check bool) "arc vs itself" false (Conflict.conflict g a a);
  Alcotest.(check bool) "arc vs reverse" true (Conflict.conflict g a (Arc.rev a))

let test_conflict_distance3_ok () =
  let g = Gen.path 6 in
  let a = Arc.make g 0 1 and b = Arc.make g 4 5 in
  Alcotest.(check bool) "distance-3 arcs ok" false (Conflict.conflict g a b)

let prop_conflict_symmetric =
  qtest "conflict is symmetric" (arb_gnp ()) (fun g ->
      let ok = ref true in
      Arc.iter g (fun a ->
          Arc.iter g (fun b ->
              if Conflict.conflict g a b <> Conflict.conflict g b a then ok := false));
      !ok)

let prop_conflicting_matches_predicate =
  qtest "iter_conflicting = brute force over the predicate" (arb_gnp ~max_n:10 ())
    (fun g ->
      let ok = ref true in
      Arc.iter g (fun a ->
          let brute = ref [] in
          Arc.iter g (fun b -> if Conflict.conflict g a b then brute := b :: !brute);
          let brute = List.rev !brute in
          if Conflict.conflicting g a <> brute then ok := false);
      !ok)

(* Independent re-encoding of Definition 2: arcs conflict iff they share
   an endpoint or the head of one is adjacent to the tail of the other.
   Brute force over all O(m^2) arc pairs. *)
let prop_conflict_matches_definition2 =
  qtest "conflict = Definition 2 brute-force oracle" (arb_gnp ~max_n:12 ()) (fun g ->
      let oracle a b =
        a <> b
        &&
        let u = Arc.tail g a and v = Arc.head g a in
        let w = Arc.tail g b and x = Arc.head g b in
        u = w || u = x || v = w || v = x
        || Graph.mem_edge g v w
        || Graph.mem_edge g x u
      in
      let ok = ref true in
      Arc.iter g (fun a ->
          Arc.iter g (fun b ->
              if Conflict.conflict g a b <> oracle a b then ok := false));
      !ok)

let prop_conflict_degree_bound =
  qtest "conflict degree obeys Lemma 6 (2d^2 - 1)" (arb_gnp ()) (fun g ->
      let bound = Conflict.degree_bound g in
      let ok = ref true in
      Arc.iter g (fun a ->
          let d = List.length (Conflict.conflicting g a) in
          if d > bound then ok := false);
      !ok)

let test_conflict_graph_shape () =
  let g = Gen.path 3 in
  (* arcs: 0->1, 1->0, 1->2, 2->1; all pairs conflict except
     {0->1, 2->1} and {1->0, 1->2}?  0->1 vs 2->1 share head 1: conflict.
     In P3 all four arcs touch node 1, so the conflict graph is K4. *)
  let cg = Conflict.conflict_graph g in
  Alcotest.(check int) "nodes" 4 (Graph.n cg);
  Alcotest.(check int) "edges" 6 (Graph.m cg)

(* Reference conflict graph straight off the Definition-2 predicate: an
   O(m^2) double loop routed through the validating [Graph.create] —
   the shape (and output) of the pre-kernel construction. *)
let reference_conflict_graph g =
  let edges = ref [] in
  Arc.iter g (fun a ->
      Arc.iter g (fun b ->
          if a < b && Conflict.conflict g a b then edges := (a, b) :: !edges));
  Graph.create ~n:(Arc.count g) !edges

let prop_conflict_graph_matches_oracle name ?(count = 40) arb =
  qtest
    (Printf.sprintf "CSR conflict_graph = Definition-2 oracle on %s" name)
    ~count arb
    (fun g -> Graph.equal (Conflict.conflict_graph g) (reference_conflict_graph g))

let prop_conflict_graph_gnp = prop_conflict_graph_matches_oracle "gnp" (arb_gnp ())
let prop_conflict_graph_udg = prop_conflict_graph_matches_oracle "udg" ~count:20 (arb_udg ())

let prop_conflict_graph_tree =
  prop_conflict_graph_matches_oracle "tree" ~count:20 (Generators.arb_tree ~max_n:30 ())

let prop_conflict_graph_connected =
  prop_conflict_graph_matches_oracle "connected" ~count:20
    (Generators.arb_connected ~max_n:15 ())

(* The generation-stamped scratch must be stateless across calls: one
   scratch reused over every arc gives exactly the fresh-scratch
   results. *)
let prop_scratch_reuse =
  qtest "shared scratch = fresh scratch per arc" (arb_gnp ()) (fun g ->
      let scratch = Conflict.scratch g in
      let ok = ref true in
      Arc.iter g (fun a ->
          if Conflict.conflicting ~scratch g a <> Conflict.conflicting g a then ok := false);
      !ok)

(* First-fit against a partial coloring that also holds colors far past
   any first-fit answer, through one reused scratch: the least color
   none of the arc's conflicting arcs holds. *)
let prop_first_fit_is_least_free =
  qtest "first_fit = least color free among conflicting arcs" (arb_gnp ()) (fun g ->
      let color_of b = if b mod 4 = 0 then -1 else if b mod 5 = 0 then 1000 + b else b mod 7 in
      let scratch = Conflict.scratch g in
      let ok = ref true in
      Arc.iter g (fun a ->
          let taken = List.map color_of (Conflict.conflicting g a) in
          let rec least c = if List.mem c taken then least (c + 1) else c in
          if Conflict.first_fit ~scratch g a color_of <> least 0 then ok := false);
      !ok)

let test_scratch_wrong_graph () =
  let g = Gen.path 3 and h = Gen.path 4 in
  let scratch = Conflict.scratch h in
  Alcotest.check_raises "foreign scratch rejected"
    (Invalid_argument "Conflict.iter_conflicting: scratch built over a different graph")
    (fun () -> Conflict.iter_conflicting ~scratch g 0 (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Schedule + validator                                                *)
(* ------------------------------------------------------------------ *)

let test_schedule_basics () =
  let g = Gen.path 3 in
  let s = Schedule.make g in
  Alcotest.(check bool) "incomplete" false (Schedule.is_complete s);
  Alcotest.(check int) "no slots" 0 (Schedule.num_slots s);
  let a = Arc.make g 0 1 in
  Schedule.set s a 3;
  Alcotest.(check int) "get" 3 (Schedule.get s a);
  Alcotest.(check int) "slots" 1 (Schedule.num_slots s);
  Alcotest.(check int) "max color" 3 (Schedule.max_color s);
  Schedule.unset s a;
  Alcotest.(check bool) "unset" false (Schedule.is_colored s a)

let test_validator_catches_uncolored () =
  let g = Gen.path 2 in
  let s = Schedule.make g in
  (match Schedule.validate s with
  | Error (Schedule.Uncolored _) -> ()
  | _ -> Alcotest.fail "expected Uncolored");
  Alcotest.(check bool) "partial ok" true (Schedule.valid_partial s)

let test_validator_catches_clash () =
  let g = fig2 () in
  let s = Schedule.make g in
  Schedule.set s (Arc.make g 0 1) 0;
  Schedule.set s (Arc.make g 2 3) 0;
  Alcotest.(check bool) "hidden terminal caught" false (Schedule.valid_partial s);
  (* color the rest distinctly so the only violation is the clash *)
  Schedule.set s (Arc.make g 1 0) 1;
  Schedule.set s (Arc.make g 1 2) 2;
  Schedule.set s (Arc.make g 2 1) 3;
  Schedule.set s (Arc.make g 3 2) 4;
  (match Schedule.validate s with
  | Error (Schedule.Clash _) -> ()
  | _ -> Alcotest.fail "expected Clash")

let test_validator_accepts_fig2 () =
  (* The feasible assignment of Figure 2: v,u transmit together. *)
  let g = fig2 () in
  let s = Schedule.make g in
  Schedule.set s (Arc.make g 1 0) 0;
  Schedule.set s (Arc.make g 2 3) 0;
  Alcotest.(check bool) "figure-2 coloring feasible" true (Schedule.valid_partial s)

let test_normalize () =
  let g = Gen.path 3 in
  let s = Schedule.make g in
  Schedule.set s 0 7;
  Schedule.set s 1 3;
  Schedule.set s 2 7;
  Schedule.set s 3 10;
  let n = Schedule.normalize s in
  Alcotest.(check int) "slots preserved" (Schedule.num_slots s) (Schedule.num_slots n);
  Alcotest.(check int) "dense max" 2 (Schedule.max_color n);
  Alcotest.(check int) "same color same slot" (Schedule.get n 0) (Schedule.get n 2)

let test_schedule_io_roundtrip () =
  let g = Gen.gnm (rng ()) ~n:15 ~m:30 in
  let s = Greedy.color g in
  let s' = Schedule.of_string g (Schedule.to_string s) in
  Alcotest.(check bool) "same colors" true (Schedule.colors s = Schedule.colors s')

let test_schedule_io_partial () =
  let g = Gen.path 3 in
  let s = Schedule.make g in
  Schedule.set s (Arc.make g 0 1) 7;
  let s' = Schedule.of_string g (Schedule.to_string s) in
  Alcotest.(check int) "kept" 7 (Schedule.get s' (Arc.make g 0 1));
  Alcotest.(check bool) "others uncolored" false (Schedule.is_colored s' (Arc.make g 1 0))

let test_schedule_io_errors () =
  let g = Gen.path 3 in
  let fails s = try ignore (Schedule.of_string g s); false with Failure _ -> true in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "bad header" true (fails "slots 4\n");
  Alcotest.(check bool) "count mismatch" true (fails "arcs 3\n");
  Alcotest.(check bool) "unknown link" true (fails "arcs 4\n0 2 1\n");
  Alcotest.(check bool) "negative slot" true (fails "arcs 4\n0 1 -2\n");
  Alcotest.(check bool) "duplicate" true (fails "arcs 4\n0 1 1\n0 1 2\n")

let prop_schedule_io_roundtrip =
  qtest "schedule io roundtrip" ~count:60 (arb_gnp ()) (fun g ->
      let s = Greedy.color g in
      Schedule.colors s = Schedule.colors (Schedule.of_string g (Schedule.to_string s)))

(* Round-trip on arbitrary (even invalid, even partial) slot maps: every
   arc must come back with exactly its slot, not merely the same palette. *)
let prop_schedule_io_roundtrip_exact =
  qtest "of_string (to_string s) = s arc-for-arc" ~count:60 (arb_gnp ()) (fun g ->
      let st = rng () in
      let s = Schedule.make g in
      Arc.iter g (fun a ->
          if Random.State.bool st then
            Schedule.set s a (Random.State.int st (2 * Arc.count g + 1)));
      let s' = Schedule.of_string g (Schedule.to_string s) in
      let ok = ref true in
      Arc.iter g (fun a -> if Schedule.get s a <> Schedule.get s' a then ok := false);
      !ok)

(* Normalize on a valid schedule with sparse slot ids: compacts to the
   same slot count, stays valid, and running it again changes nothing. *)
let prop_normalize_idempotent =
  qtest "normalize idempotent on sparse valid schedules" ~count:60 (arb_gnp ())
    (fun g ->
      let st = rng () in
      let s0 = Greedy.color g in
      let k = Schedule.num_slots s0 in
      let off = Array.make (max k 1) 0 in
      let cur = ref 0 in
      for i = 0 to k - 1 do
        cur := !cur + 1 + Random.State.int st 3;
        off.(i) <- !cur
      done;
      let s = Schedule.make g in
      Arc.iter g (fun a ->
          let c = Schedule.get s0 a in
          if c >= 0 then Schedule.set s a off.(c));
      let n1 = Schedule.normalize s in
      let n2 = Schedule.normalize n1 in
      Schedule.valid n1
      && Schedule.num_slots n1 = k
      &&
      let ok = ref true in
      Arc.iter g (fun a -> if Schedule.get n1 a <> Schedule.get n2 a then ok := false);
      !ok)

let test_printers_smoke () =
  let g = Gen.path 3 in
  let s = Greedy.color g in
  let text = Format.asprintf "%a" Schedule.pp s in
  Alcotest.(check bool) "pp mentions slots" true
    (String.length text > 0 && String.index_opt text ':' <> None);
  let v = Schedule.Clash (Arc.make g 0 1, Arc.make g 1 2) in
  let vt = Format.asprintf "%a" (Schedule.pp_violation g) v in
  Alcotest.(check bool) "violation text" true (String.length vt > 0);
  let gt = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check bool) "graph pp" true (String.length gt > 0);
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "dot has edges" true (String.index_opt dot '-' <> None)

let test_of_colors () =
  let g = Gen.path 2 in
  Alcotest.check_raises "length" (Invalid_argument "Schedule.of_colors: length mismatch")
    (fun () -> ignore (Schedule.of_colors g [| 0 |]));
  let s = Schedule.of_colors g [| 0; 1 |] in
  Alcotest.(check bool) "valid" true (Schedule.valid s)

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds_trees () =
  let star = Gen.star 5 in
  Alcotest.(check int) "star LB = 2*delta" 8 (Bounds.lower star);
  Alcotest.(check int) "star UB" 32 (Bounds.upper star);
  let p = Gen.path 5 in
  Alcotest.(check int) "path LB" 4 (Bounds.lower p);
  let t = Gen.random_tree (rng ()) 30 in
  Alcotest.(check int) "tree LB" (2 * Graph.max_degree t) (Bounds.lower t)

let test_bounds_complete () =
  (* On K_n the Theorem 1 bound is tight: 2(deg + cluster + joint) =
     delta^2 + delta. *)
  let check_kn n =
    let g = Gen.complete n in
    let d = n - 1 in
    Alcotest.(check int)
      (Printf.sprintf "K%d LB" n)
      ((d * d) + d)
      (Bounds.lower g)
  in
  check_kn 3;
  check_kn 4;
  check_kn 5

let test_bounds_cluster_fig3 () =
  (* Figure 3: center v with neighbors u,w,x,r,z,t; cliques vwx, vwr,
     vwz (cluster of common edge (v,w), size 3) and vxw, vxt (cluster of
     common edge (v,x), size 2); joint edge (x,r). *)
  let v = 0 and u = 1 and w = 2 and x = 3 and r = 4 and z = 5 and t = 6 in
  let g =
    Graph.create ~n:7
      [ (v, u); (v, w); (v, x); (v, r); (v, z); (v, t);
        (w, x); (w, r); (w, z); (x, t); (x, r) ]
  in
  Alcotest.(check int) "cluster size (v,w)" 3 (Bounds.cluster_size g v w);
  (* the paper lists 2 cliques for cluster (v,x), but with the joint
     edge (x,r) drawn in, vxr is a third clique on edge (v,x) *)
  Alcotest.(check int) "cluster size (v,x)" 3 (Bounds.cluster_size g v x);
  (* joint clique of cluster (v,w): edges among {x,r,z}; only (x,r) is
     present, so the largest joint clique has 1 edge *)
  Alcotest.(check int) "joint clique edges" 1 (Bounds.joint_clique_edges g v w);
  Alcotest.(check int) "node bound v" (6 + 3 + 1) (Bounds.node_bound g v)

let test_bounds_empty () =
  let g = Graph.create ~n:4 [] in
  Alcotest.(check int) "LB" 0 (Bounds.lower g);
  Alcotest.(check int) "UB" 0 (Bounds.upper g)

let test_clique_lower () =
  (* clique LB on the conflict graph can only strengthen Theorem 1 *)
  let g = Gen.complete 4 in
  Alcotest.(check int) "K4 conflict clique = all arcs" 12 (Bounds.clique_lower g)

let prop_lower_le_upper =
  qtest "LB <= UB" (arb_gnp ()) (fun g -> Bounds.lower g <= max (Bounds.lower g) (Bounds.upper g))

let prop_lower_sound =
  qtest "Theorem 1 LB <= exact optimum" ~count:60 (arb_gnp ~max_n:7 ()) (fun g ->
      let opt = Dsatur.fdlsp_optimal g in
      opt.Dsatur.status <> Dsatur.Optimal || Bounds.lower g <= opt.Dsatur.colors_used)

let prop_clique_lower_sound =
  qtest "conflict-clique LB <= exact optimum" ~count:40 (arb_gnp ~max_n:6 ()) (fun g ->
      let opt = Dsatur.fdlsp_optimal g in
      opt.Dsatur.status <> Dsatur.Optimal || Bounds.clique_lower g <= opt.Dsatur.colors_used)

(* Lemma 6 reconciliation: the slot bound and the conflict-degree bound
   are the same fact, so the two entry points must agree exactly — and
   both must dominate the observed clique number of the conflict graph
   (clique <= chromatic <= upper). *)
let prop_upper_is_degree_bound_plus_one =
  qtest "Bounds.upper = Conflict.degree_bound + 1" (arb_gnp ()) (fun g ->
      Bounds.upper g = Conflict.degree_bound g + 1)

let prop_upper_dominates_conflict_clique =
  qtest "conflict-graph clique number <= both Lemma 6 bounds" ~count:30
    (arb_gnp ~max_n:8 ()) (fun g ->
      let omega = Clique.max_clique_size (Conflict.conflict_graph g) in
      (* a clique of conflicting arcs pins each member to a distinct slot,
         and all but one of them to a conflict of any given member *)
      omega <= Bounds.upper g && omega - 1 <= Conflict.degree_bound g)

(* ------------------------------------------------------------------ *)
(* Greedy                                                              *)
(* ------------------------------------------------------------------ *)

let test_greedy_path () =
  let s = Greedy.color (Gen.path 2) in
  Alcotest.(check bool) "valid" true (Schedule.valid s);
  Alcotest.(check int) "single edge needs 2 slots" 2 (Schedule.num_slots s)

let prop_greedy_valid =
  qtest "greedy schedules validate" (arb_gnp ()) (fun g -> Schedule.valid (Greedy.color g))

let prop_greedy_valid_udg =
  qtest "greedy schedules validate on UDG" ~count:40 (arb_udg ()) (fun g ->
      Schedule.valid (Greedy.color g))

let prop_greedy_within_bounds =
  qtest "greedy slots within [LB, 2 delta^2]" (arb_gnp ()) (fun g ->
      let s = Greedy.color g in
      let slots = Schedule.num_slots s in
      Bounds.lower g <= slots && slots <= Bounds.upper g)

let prop_greedy_orders_valid =
  qtest "greedy order variants validate" ~count:40 (arb_gnp ()) (fun g ->
      Schedule.valid (Greedy.color ~order:Greedy.By_degree g)
      && Schedule.valid (Greedy.color ~order:(Greedy.Shuffled (rng ())) g))

let test_greedy_extend_partial () =
  let g = Gen.cycle 5 in
  let s = Schedule.make g in
  Schedule.set s (Arc.make g 0 1) 0;
  Greedy.extend s (List.init (Arc.count g) Fun.id);
  Alcotest.(check bool) "complete" true (Schedule.is_complete s);
  Alcotest.(check bool) "valid" true (Schedule.valid s);
  Alcotest.(check int) "kept preset color" 0 (Schedule.get s (Arc.make g 0 1))

(* ------------------------------------------------------------------ *)
(* Vizing / Misra-Gries                                                *)
(* ------------------------------------------------------------------ *)

let check_vizing g name =
  let col, _ = Vizing.color g in
  Alcotest.(check bool) (name ^ " proper") true (Vizing.is_proper g col);
  let delta = Graph.max_degree g in
  let used = Array.fold_left max (-1) col + 1 in
  Alcotest.(check bool)
    (Printf.sprintf "%s uses <= delta+1 (%d <= %d)" name used (delta + 1))
    true (used <= delta + 1)

let test_vizing_shapes () =
  check_vizing (Gen.path 10) "path";
  check_vizing (Gen.cycle 9) "odd cycle";
  check_vizing (Gen.cycle 8) "even cycle";
  check_vizing (Gen.complete 7) "K7";
  check_vizing (Gen.complete_bipartite 4 4) "K44";
  check_vizing (Gen.star 9) "star";
  check_vizing (Gen.grid 5 5) "grid";
  check_vizing (Graph.create ~n:3 []) "edgeless"

let prop_vizing =
  qtest "Misra-Gries proper with <= delta+1 colors" ~count:200 (arb_gnp ~max_n:20 ())
    (fun g ->
      let col, _ = Vizing.color g in
      Vizing.is_proper g col && Array.fold_left max (-1) col + 1 <= Graph.max_degree g + 1)

let prop_vizing_udg =
  qtest "Misra-Gries on UDG" ~count:60 (arb_udg ()) (fun g ->
      let col, _ = Vizing.color g in
      Vizing.is_proper g col && Array.fold_left max (-1) col + 1 <= Graph.max_degree g + 1)

(* Misra-Gries output pinned on 50 seeded graphs (25 UDGs of average
   degree 4-12, 25 G(n,p)): every color and every statistic feeds
   D-MGC's schedule and cost model, so a change to the fan or cd-path
   code must not move any of them.  The digest was taken from the
   Hashtbl/list implementation this one replaced. *)
let vizing_pin_digest = "076faa716beea5160b0777faf34ca0e6"

let test_vizing_pinned () =
  let buf = Buffer.create 4096 in
  let add g =
    let col, st = Vizing.color g in
    Array.iter (fun c -> Buffer.add_string buf (string_of_int c ^ ",")) col;
    Buffer.add_string buf
      (Printf.sprintf "|%d %d %d %d\n" st.Vizing.fans st.Vizing.inversions
         st.Vizing.total_path_length st.Vizing.longest_path)
  in
  for i = 0 to 24 do
    let st = Random.State.make [| 0x51; i |] in
    let n = 20 + (6 * i) in
    let degree = 4. +. float_of_int (i mod 9) in
    let side = sqrt (float_of_int n *. Float.pi /. degree) in
    add (fst (Gen.udg st ~n ~side ~radius:1.));
    add (Gen.gnp st ~n:(10 + (2 * i)) ~p:(0.1 +. (0.03 *. float_of_int i)))
  done;
  Alcotest.(check string) "digest" vizing_pin_digest (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_vizing_stats () =
  let g = Gen.complete 6 in
  let _, stats = Vizing.color g in
  Alcotest.(check int) "one fan per edge" (Graph.m g) stats.Vizing.fans;
  Alcotest.(check bool) "path accounting consistent" true
    (stats.Vizing.total_path_length >= stats.Vizing.longest_path)

(* ------------------------------------------------------------------ *)
(* DSATUR exact                                                        *)
(* ------------------------------------------------------------------ *)

(* Brute-force chromatic number for cross-checking. *)
let brute_chromatic g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let color = Array.make n (-1) in
    let rec try_k k =
      let rec fill v =
        if v = n then true
        else begin
          let ok = ref false in
          let c = ref 0 in
          while (not !ok) && !c < k do
            let conflict = Graph.fold_neighbors g v (fun acc w -> acc || color.(w) = !c) false in
            if not conflict then begin
              color.(v) <- !c;
              if fill (v + 1) then ok := true else color.(v) <- -1
            end;
            incr c
          done;
          !ok
        end
      in
      if fill 0 then k else try_k (k + 1)
    in
    try_k 1
  end

let test_dsatur_known () =
  let check name g expect =
    let r = Dsatur.solve g in
    Alcotest.(check bool) (name ^ " optimal") true (r.Dsatur.status = Dsatur.Optimal);
    Alcotest.(check int) (name ^ " chromatic") expect r.Dsatur.colors_used;
    Alcotest.(check bool) (name ^ " proper") true (Dsatur.is_proper_coloring g r.Dsatur.coloring)
  in
  check "K5" (Gen.complete 5) 5;
  check "C5" (Gen.cycle 5) 3;
  check "C6" (Gen.cycle 6) 2;
  check "K33" (Gen.complete_bipartite 3 3) 2;
  check "petersen-ish grid" (Gen.grid 3 3) 2;
  check "edgeless" (Graph.create ~n:5 []) 1

let prop_dsatur_matches_brute_force =
  qtest "DSATUR = brute-force chromatic" ~count:60 (arb_gnp ~max_n:8 ()) (fun g ->
      let r = Dsatur.solve g in
      r.Dsatur.status = Dsatur.Optimal
      && r.Dsatur.colors_used = brute_chromatic g
      && Dsatur.is_proper_coloring g r.Dsatur.coloring)

let test_fdlsp_optimal_cycles () =
  (* Paper Section 3 states (via [8]) that even cycles need 4 slots and
     odd cycles 6.  The exact solver refines this: 4 slots iff the cycle
     length is divisible by 4 (the rotating 4-arc pattern exists), 5 for
     the other lengths >= 5, and 6 for C3 (= K3) and C6.  The paper's
     figures stay upper bounds; see EXPERIMENTS.md. *)
  let slots n = (Dsatur.fdlsp_optimal (Gen.cycle n)).Dsatur.colors_used in
  Alcotest.(check int) "C4 slots" 4 (slots 4);
  Alcotest.(check int) "C8 slots" 4 (slots 8);
  Alcotest.(check int) "C12 slots" 4 (slots 12);
  Alcotest.(check int) "C6 slots" 6 (slots 6);
  Alcotest.(check int) "C5 slots" 5 (slots 5);
  Alcotest.(check int) "C7 slots" 5 (slots 7);
  Alcotest.(check int) "C3 slots" 6 (slots 3)

let test_fdlsp_optimal_complete () =
  (* Complete graphs: every arc needs its own slot: delta^2 + delta. *)
  let k4 = Dsatur.fdlsp_optimal (Gen.complete 4) in
  Alcotest.(check int) "K4 slots" 12 k4.Dsatur.colors_used;
  let k5 = Dsatur.fdlsp_optimal (Gen.complete 5) in
  Alcotest.(check int) "K5 slots" 20 k5.Dsatur.colors_used

let test_fdlsp_optimal_trees () =
  (* ILP and DFS both assign 2 delta on trees (Section 8). *)
  let star = Dsatur.fdlsp_optimal (Gen.star 5) in
  Alcotest.(check int) "star slots" 8 star.Dsatur.colors_used;
  let p = Dsatur.fdlsp_optimal (Gen.path 6) in
  Alcotest.(check int) "path slots" 4 p.Dsatur.colors_used

let () =
  Alcotest.run "fdlsp_color"
    [
      ( "conflict",
        [
          Alcotest.test_case "hidden terminal (fig 1/2)" `Quick test_conflict_hidden_terminal;
          Alcotest.test_case "shared endpoints" `Quick test_conflict_shared_endpoint;
          Alcotest.test_case "distance-3 ok" `Quick test_conflict_distance3_ok;
          Alcotest.test_case "conflict graph shape" `Quick test_conflict_graph_shape;
          Alcotest.test_case "scratch for wrong graph" `Quick test_scratch_wrong_graph;
          prop_conflict_symmetric;
          prop_conflicting_matches_predicate;
          prop_conflict_matches_definition2;
          prop_conflict_degree_bound;
          prop_conflict_graph_gnp;
          prop_conflict_graph_udg;
          prop_conflict_graph_tree;
          prop_conflict_graph_connected;
          prop_scratch_reuse;
          prop_first_fit_is_least_free;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "uncolored caught" `Quick test_validator_catches_uncolored;
          Alcotest.test_case "clash caught" `Quick test_validator_catches_clash;
          Alcotest.test_case "figure-2 coloring accepted" `Quick test_validator_accepts_fig2;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "of_colors" `Quick test_of_colors;
          Alcotest.test_case "printers smoke" `Quick test_printers_smoke;
          Alcotest.test_case "io roundtrip" `Quick test_schedule_io_roundtrip;
          Alcotest.test_case "io partial" `Quick test_schedule_io_partial;
          Alcotest.test_case "io errors" `Quick test_schedule_io_errors;
          prop_schedule_io_roundtrip;
          prop_schedule_io_roundtrip_exact;
          prop_normalize_idempotent;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "trees" `Quick test_bounds_trees;
          Alcotest.test_case "complete graphs" `Quick test_bounds_complete;
          Alcotest.test_case "figure-3 clusters" `Quick test_bounds_cluster_fig3;
          Alcotest.test_case "empty" `Quick test_bounds_empty;
          Alcotest.test_case "clique lower" `Quick test_clique_lower;
          prop_lower_le_upper;
          prop_lower_sound;
          prop_clique_lower_sound;
          prop_upper_is_degree_bound_plus_one;
          prop_upper_dominates_conflict_clique;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "single edge" `Quick test_greedy_path;
          Alcotest.test_case "extend partial" `Quick test_greedy_extend_partial;
          prop_greedy_valid;
          prop_greedy_valid_udg;
          prop_greedy_within_bounds;
          prop_greedy_orders_valid;
        ] );
      ( "vizing",
        [
          Alcotest.test_case "named shapes" `Quick test_vizing_shapes;
          Alcotest.test_case "stats" `Quick test_vizing_stats;
          Alcotest.test_case "pinned on 50 seeded graphs" `Quick test_vizing_pinned;
          prop_vizing;
          prop_vizing_udg;
        ] );
      ( "dsatur",
        [
          Alcotest.test_case "known chromatic numbers" `Quick test_dsatur_known;
          Alcotest.test_case "fdlsp cycles" `Quick test_fdlsp_optimal_cycles;
          Alcotest.test_case "fdlsp complete" `Quick test_fdlsp_optimal_complete;
          Alcotest.test_case "fdlsp trees" `Quick test_fdlsp_optimal_trees;
          prop_dsatur_matches_brute_force;
        ] );
    ]
