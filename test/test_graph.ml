(* Tests for the graph substrate: construction, accessors, generators,
   traversals, cliques, and the bi-directed arc view. *)

open Fdlsp_graph

let rng = Generators.rng [| 0xF0D5; 42 |]

(* Graph arbitraries live in Generators (shared across the suite). *)
let arb_gnp ?(max_n = 24) () = Generators.arb_gnp ~max_n ()
let qtest name ?(count = 100) arb prop = Generators.qtest name ~count arb prop

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let test_create_basic () =
  let g = Graph.create ~n:4 [ (0, 1); (1, 2); (3, 1) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "deg 1" 3 (Graph.degree g 1);
  Alcotest.(check int) "deg 0" 1 (Graph.degree g 0);
  Alcotest.(check int) "deg 2" 1 (Graph.degree g 2);
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g);
  Alcotest.(check bool) "mem 0 1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "mem 1 0" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "mem 0 2" false (Graph.mem_edge g 0 2);
  Alcotest.(check bool) "no self" false (Graph.mem_edge g 1 1)

let test_create_rejects () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self loop") (fun () ->
      ignore (Graph.create ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "dup" (Invalid_argument "Graph.create: duplicate edge") (fun () ->
      ignore (Graph.create ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.create: endpoint out of range")
    (fun () -> ignore (Graph.create ~n:2 [ (0, 2) ]))

let test_empty () =
  let g = Graph.create ~n:0 [] in
  Alcotest.(check int) "n" 0 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.m g);
  Alcotest.(check int) "max degree" 0 (Graph.max_degree g)

let test_neighbors_sorted () =
  let g = Graph.create ~n:5 [ (3, 1); (1, 0); (4, 1); (1, 2) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 2; 3; 4 |] (Graph.neighbors g 1)

let test_edge_index () =
  let g = Graph.create ~n:4 [ (2, 3); (0, 1) ] in
  (match Graph.edge_index g 1 0 with
  | Some e ->
      let u, v = Graph.edge_endpoints g e in
      Alcotest.(check (pair int int)) "endpoints canonical" (0, 1) (u, v)
  | None -> Alcotest.fail "edge 0-1 missing");
  Alcotest.(check bool) "absent" true (Graph.edge_index g 0 2 = None)

let test_common_neighbors () =
  let g = Gen.complete 5 in
  Alcotest.(check (list int)) "K5 common" [ 2; 3; 4 ] (Graph.common_neighbors g 0 1);
  let p = Gen.path 5 in
  Alcotest.(check (list int)) "path common" [] (Graph.common_neighbors p 0 1);
  Alcotest.(check (list int)) "path ends" [ 1 ] (Graph.common_neighbors p 0 2)

let test_induced () =
  let g = Gen.complete 5 in
  let sub, back = Graph.induced g [ 0; 2; 4 ] in
  Alcotest.(check int) "n" 3 (Graph.n sub);
  Alcotest.(check int) "m" 3 (Graph.m sub);
  Alcotest.(check (array int)) "back map" [| 0; 2; 4 |] back

let test_remove_nodes () =
  let g = Gen.complete 4 in
  let dead = [| false; true; false; false |] in
  let g' = Graph.remove_nodes g dead in
  Alcotest.(check int) "same node count" 4 (Graph.n g');
  Alcotest.(check int) "edges drop" 3 (Graph.m g');
  Alcotest.(check int) "isolated" 0 (Graph.degree g' 1)

let test_complement () =
  let g = Gen.path 4 in
  let c = Graph.complement g in
  Alcotest.(check int) "m" 3 (Graph.m c);
  Alcotest.(check bool) "0-2" true (Graph.mem_edge c 0 2);
  Alcotest.(check bool) "0-1 gone" false (Graph.mem_edge c 0 1)

let prop_degree_sum =
  qtest "sum of degrees = 2m" (arb_gnp ()) (fun g ->
      let total = ref 0 in
      for v = 0 to Graph.n g - 1 do
        total := !total + Graph.degree g v
      done;
      !total = 2 * Graph.m g)

let prop_mem_edge_symmetric =
  qtest "mem_edge symmetric and matches edge list" (arb_gnp ()) (fun g ->
      let ok = ref true in
      for u = 0 to Graph.n g - 1 do
        for v = 0 to Graph.n g - 1 do
          if Graph.mem_edge g u v <> Graph.mem_edge g v u then ok := false
        done
      done;
      Graph.iter_edges g (fun _ u v -> if not (Graph.mem_edge g u v) then ok := false);
      !ok)

let prop_complement_involution =
  qtest "complement of complement" ~count:50 (arb_gnp ~max_n:12 ()) (fun g ->
      Graph.equal g (Graph.complement (Graph.complement g)))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_shapes () =
  Alcotest.(check int) "path m" 6 (Graph.m (Gen.path 7));
  Alcotest.(check int) "cycle m" 7 (Graph.m (Gen.cycle 7));
  Alcotest.(check int) "star m" 6 (Graph.m (Gen.star 7));
  Alcotest.(check int) "K6 m" 15 (Graph.m (Gen.complete 6));
  Alcotest.(check int) "K34 m" 12 (Graph.m (Gen.complete_bipartite 3 4));
  Alcotest.(check int) "grid m" 12 (Graph.m (Gen.grid 3 3));
  Alcotest.(check int) "grid deg center" 4 (Graph.degree (Gen.grid 3 3) 4)

let test_gen_tree () =
  let g = Gen.random_tree (rng ()) 40 in
  Alcotest.(check int) "tree m" 39 (Graph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_gen_gnm () =
  let g = Gen.gnm (rng ()) ~n:30 ~m:100 in
  Alcotest.(check int) "m exact" 100 (Graph.m g);
  let dense = Gen.gnm (rng ()) ~n:10 ~m:44 in
  Alcotest.(check int) "dense m exact" 44 (Graph.m dense);
  let full = Gen.gnm (rng ()) ~n:10 ~m:45 in
  Alcotest.(check int) "complete m" 45 (Graph.m full);
  Alcotest.check_raises "too many" (Invalid_argument "Gen.gnm: edge count out of range")
    (fun () -> ignore (Gen.gnm (rng ()) ~n:10 ~m:46))

let test_gen_udg () =
  let g, pts = Gen.udg (rng ()) ~n:120 ~side:10. ~radius:1.5 in
  Alcotest.(check int) "n" 120 (Graph.n g);
  (* cross-check the grid-bucketed construction against brute force *)
  let brute = ref 0 in
  Array.iteri
    (fun i p ->
      Array.iteri (fun j q -> if i < j && Geometry.dist p q <= 1.5 then incr brute) pts)
    pts;
  Alcotest.(check int) "udg matches brute force" !brute (Graph.m g)

let test_udg_edges_radius_boundary () =
  let pts = Geometry.[ { x = 0.; y = 0. }; { x = 1.; y = 0. }; { x = 0.; y = 1.0001 } ] in
  let g = Geometry.udg (Array.of_list pts) ~radius:1.0 in
  Alcotest.(check int) "only the exact-distance pair" 1 (Graph.m g);
  Alcotest.(check bool) "0-1 in" true (Graph.mem_edge g 0 1)

(* O(n^2) distance oracle for [Geometry.udg_edges]. *)
let udg_oracle pts ~radius =
  let n = Array.length pts in
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Geometry.dist pts.(i) pts.(j) <= radius then edges := (i, j) :: !edges
    done
  done;
  !edges

let test_udg_edges_negative_coords () =
  (* Regression: [int_of_float] truncates toward zero, so without the
     floor the bucketing merged cells -1 and 0 and the 3x3 scan missed
     edges between points straddling an axis. *)
  let pts =
    Geometry.
      [|
        { x = -0.1; y = 0.2 };
        { x = 0.1; y = 0.2 };
        { x = 0.2; y = -0.1 };
        { x = -1.95; y = -0.05 };
        { x = -1.05; y = -0.05 };
        { x = -2.6; y = -2.6 };
      |]
  in
  let got = List.sort compare (Geometry.udg_edges pts ~radius:1.0) in
  let want = List.sort compare (udg_oracle pts ~radius:1.0) in
  Alcotest.(check bool) "origin-straddling pairs present"
    true
    (List.mem (0, 1) got && List.mem (1, 2) got && List.mem (3, 4) got);
  Alcotest.(check (list (pair int int))) "matches O(n^2) oracle" want got

let arb_straddling_points =
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let n = 2 + Random.State.int st 40 in
      Array.init n (fun _ ->
          Geometry.
            { x = Random.State.float st 6. -. 3.; y = Random.State.float st 6. -. 3. }))
    ~shrink:(fun pts ->
      if Array.length pts <= 2 then Seq.empty
      else Seq.return (Array.sub pts 0 (Array.length pts - 1)))

let prop_udg_edges_straddle_origin =
  qtest "udg_edges = distance oracle on points straddling the origin" ~count:100
    arb_straddling_points (fun pts ->
      List.sort compare (Geometry.udg_edges pts ~radius:1.0)
      = List.sort compare (udg_oracle pts ~radius:1.0))

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let test_bfs () =
  let g = Gen.path 6 in
  let d = Traversal.bfs_distances g 0 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4; 5 |] d;
  Alcotest.(check int) "pairwise" 3 (Traversal.distance g 1 4)

let test_bfs_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1) ] in
  let d = Traversal.bfs_distances g 0 in
  Alcotest.(check bool) "unreachable" true (d.(2) = max_int);
  Alcotest.(check bool) "distance inf" true (Traversal.distance g 0 3 = max_int);
  let _, k = Traversal.components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g)

let test_within () =
  let g = Gen.cycle 8 in
  let scratch = Traversal.scratch g in
  Alcotest.(check (list int)) "r=2 on C8" [ 1; 2; 6; 7 ] (Traversal.within ~scratch g 0 2);
  Alcotest.(check (list int)) "r=0" [] (Traversal.within ~scratch g 0 0)

let test_diameter () =
  Alcotest.(check int) "path" 5 (Traversal.diameter (Gen.path 6));
  Alcotest.(check int) "cycle" 4 (Traversal.diameter (Gen.cycle 8));
  Alcotest.(check int) "complete" 1 (Traversal.diameter (Gen.complete 5))

let test_dfs_preorder () =
  let g = Gen.path 5 in
  let order = Traversal.dfs_preorder g 2 ~next:(fun _ cands -> Some (List.hd cands)) in
  Alcotest.(check (list int)) "walk" [ 2; 1; 0; 3; 4 ] order;
  (* max-degree preference, as in Algorithm 2 *)
  let h = Graph.create ~n:5 [ (0, 1); (0, 2); (2, 3); (2, 4) ] in
  let next _ cands =
    let best =
      List.fold_left
        (fun acc w ->
          match acc with
          | Some b when Graph.degree h b >= Graph.degree h w -> acc
          | _ -> Some w)
        None cands
    in
    best
  in
  let order = Traversal.dfs_preorder h 0 ~next in
  Alcotest.(check (list int)) "prefers max degree" [ 0; 2; 3; 4; 1 ] order

let prop_within_matches_bfs =
  qtest "within = nodes with bfs distance in 1..r" (arb_gnp ()) (fun g ->
      let ok = ref true in
      for v = 0 to min 4 (Graph.n g - 1) do
        let d = Traversal.bfs_distances g v in
        for r = 0 to 3 do
          let expect = ref [] in
          Array.iteri (fun w dw -> if dw >= 1 && dw <= r then expect := w :: !expect) d;
          if Traversal.within ~scratch:(Traversal.scratch g) g v r <> List.sort compare !expect
          then ok := false
        done
      done;
      !ok)

let prop_within_reused_scratch =
  qtest "within over one reused scratch = within" (arb_gnp ()) (fun g ->
      let scratch = Traversal.scratch g in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        for r = 0 to 3 do
          if Traversal.within ~scratch g v r <> Traversal.within ~scratch:(Traversal.scratch g) g v r
          then ok := false
        done
      done;
      !ok)

let prop_virtual_graph_matches_bfs =
  qtest "virtual_graph joins the members within dist hops" (arb_gnp ()) (fun g ->
      let n = Graph.n g in
      let members = Array.init n (fun v -> ((v * 7) + n) mod 3 <> 0) in
      let ids = List.filter (fun v -> members.(v)) (List.init n Fun.id) in
      List.for_all
        (fun dist ->
          let vg, back = Traversal.virtual_graph g members ~dist in
          let expect = ref [] in
          List.iteri
            (fun i v ->
              let d = Traversal.bfs_distances g v in
              List.iteri (fun j w -> if i < j && d.(w) <= dist then expect := (i, j) :: !expect) ids)
            ids;
          Array.to_list back = ids
          && Graph.n vg = List.length ids
          && Array.to_list (Graph.edges vg) = List.sort compare !expect)
        [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Cliques                                                             *)
(* ------------------------------------------------------------------ *)

let test_triangles () =
  Alcotest.(check int) "K4 triangles" 4 (Clique.triangle_count (Gen.complete 4));
  Alcotest.(check int) "K5 triangles" 10 (Clique.triangle_count (Gen.complete 5));
  Alcotest.(check int) "C5 triangles" 0 (Clique.triangle_count (Gen.cycle 5));
  Alcotest.(check int) "K33 triangles" 0 (Clique.triangle_count (Gen.complete_bipartite 3 3));
  let g = Gen.complete 4 in
  Alcotest.(check int) "on edge" 2 (Clique.triangles_on_edge g 0 1)

let test_max_clique () =
  Alcotest.(check int) "K6" 6 (Clique.max_clique_size (Gen.complete 6));
  Alcotest.(check int) "C7" 2 (Clique.max_clique_size (Gen.cycle 7));
  Alcotest.(check int) "K33" 2 (Clique.max_clique_size (Gen.complete_bipartite 3 3));
  Alcotest.(check int) "empty" 0 (Clique.max_clique_size (Graph.create ~n:0 []));
  Alcotest.(check int) "isolated" 1 (Clique.max_clique_size (Graph.create ~n:3 []))

let test_max_clique_embedded () =
  (* K4 plus a pending path *)
  let g = Graph.create ~n:7 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5); (5, 6) ] in
  let c = Clique.max_clique g in
  Alcotest.(check (list int)) "finds K4" [ 0; 1; 2; 3 ] c;
  Alcotest.(check bool) "is clique" true (Clique.is_clique g c)

let prop_max_clique_is_clique =
  qtest "max_clique returns a clique" ~count:60 (arb_gnp ~max_n:14 ()) (fun g ->
      Clique.is_clique g (Clique.max_clique g))

let prop_maximal_cliques_cover =
  qtest "every edge is inside some maximal clique" ~count:40 (arb_gnp ~max_n:12 ()) (fun g ->
      let covered = Array.make (Graph.m g) false in
      Clique.iter_maximal_cliques g (fun c ->
          let arr = Array.of_list c in
          Array.iteri
            (fun i u ->
              Array.iteri
                (fun j v ->
                  if i < j then
                    match Graph.edge_index g u v with
                    | Some e -> covered.(e) <- true
                    | None -> ())
                arr)
            arr);
      Array.for_all Fun.id covered)

(* ------------------------------------------------------------------ *)
(* Io                                                                  *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  let g = Gen.gnm (rng ()) ~n:20 ~m:40 in
  let g' = Io.of_string (Io.to_string g) in
  Alcotest.(check bool) "roundtrip" true (Graph.equal g g')

let test_io_comments_and_blanks () =
  let text = "# a sensor field\n3 2\n\n0 1\n# hop\n1 2\n" in
  let g = Io.of_string text in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.m g)

let test_io_errors () =
  let fails s = try ignore (Io.of_string s); false with Failure _ -> true in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "bad header" true (fails "3\n");
  Alcotest.(check bool) "bad int" true (fails "2 1\n0 x\n");
  Alcotest.(check bool) "edge count mismatch" true (fails "3 2\n0 1\n")

let test_io_file () =
  let g = Gen.cycle 5 in
  let path = Filename.temp_file "fdlsp" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file path g;
      Alcotest.(check bool) "file roundtrip" true (Graph.equal g (Io.read_file path)))

let prop_io_roundtrip =
  qtest "io roundtrip on random graphs" (arb_gnp ()) (fun g ->
      Graph.equal g (Io.of_string (Io.to_string g)))

(* ------------------------------------------------------------------ *)
(* Arcs                                                                *)
(* ------------------------------------------------------------------ *)

let test_arcs_basic () =
  let g = Graph.create ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "count" 4 (Arc.count g);
  let a01 = Arc.make g 0 1 and a10 = Arc.make g 1 0 in
  Alcotest.(check int) "tail" 0 (Arc.tail g a01);
  Alcotest.(check int) "head" 1 (Arc.head g a01);
  Alcotest.(check int) "rev" a10 (Arc.rev a01);
  Alcotest.(check int) "rev rev" a01 (Arc.rev (Arc.rev a01));
  Alcotest.check_raises "non-edge" (Invalid_argument "Arc.make: not an edge") (fun () ->
      ignore (Arc.make g 0 2))

(* The two color-table shapes against a plain association-list model:
   the same bindings after the same updates, and a cleared dense table
   forgets every binding. *)
let prop_arc_tables_match_model =
  qtest "Arc.Tbl and Arc.Dense = association list" (arb_gnp ()) (fun g ->
      let k = Arc.count g in
      let ops = List.init (3 * k) (fun i -> ((i * 7919) mod k, i mod 5)) in
      let tbl = Arc.Tbl.create 1 and dense = Arc.Dense.create g in
      let model = ref [] and firsts = ref [] in
      List.iter
        (fun (a, c) ->
          Arc.Tbl.replace tbl a c;
          Arc.Dense.replace dense a c;
          if not (List.mem_assoc a !model) then firsts := a :: !firsts;
          model := (a, c) :: List.remove_assoc a !model)
        ops;
      let sorted l = List.sort compare (Array.to_list l) in
      let expect = List.sort compare !model in
      let arcs = List.init k Fun.id in
      let agree =
        sorted (Arc.Tbl.to_array tbl) = expect
        && sorted (Arc.Dense.to_array dense) = expect
        && List.map fst (Array.to_list (Arc.Dense.to_array dense)) = List.rev !firsts
        && List.for_all
             (fun a ->
               let m = List.assoc_opt a !model in
               Arc.Dense.get dense a = Option.value m ~default:(-1)
               && Arc.Dense.mem dense a = (m <> None))
             arcs
      in
      Arc.Dense.clear dense;
      agree
      && Arc.Dense.to_array dense = [||]
      && List.for_all (fun a -> Arc.Dense.get dense a = -1) arcs)

(* The stamped set behind the tables and scratches, against a bool
   array across many clears. *)
let test_stamp () =
  let n = 17 in
  let s = Stamp.create n and model = Array.make n false in
  Alcotest.(check int) "length" n (Stamp.length s);
  for step = 0 to 999 do
    if step mod 13 = 0 then begin
      Stamp.clear s;
      Array.fill model 0 n false
    end
    else begin
      let i = step * 7919 mod n in
      Stamp.mark s i;
      model.(i) <- true
    end;
    for i = 0 to n - 1 do
      if Stamp.marked s i <> model.(i) then Alcotest.failf "step %d: member %d" step i
    done
  done

let test_arcs_iter () =
  let g = Gen.star 4 in
  let out = ref [] in
  Arc.iter_out g 0 (fun a -> out := (Arc.tail g a, Arc.head g a) :: !out);
  Alcotest.(check (list (pair int int))) "out of center" [ (0, 3); (0, 2); (0, 1) ] !out;
  let inc = ref 0 in
  Arc.iter_incident g 0 (fun _ -> incr inc);
  Alcotest.(check int) "incident arcs" 6 !inc;
  let all = ref 0 in
  Arc.iter g (fun _ -> incr all);
  Alcotest.(check int) "all arcs" 6 !all

let prop_arc_roundtrip =
  qtest "arc make/tail/head round trip" (arb_gnp ()) (fun g ->
      let ok = ref true in
      Graph.iter_edges g (fun _ u v ->
          let a = Arc.make g u v in
          if Arc.tail g a <> u || Arc.head g a <> v then ok := false;
          let b = Arc.make g v u in
          if b <> Arc.rev a then ok := false);
      !ok)

(* The rewritten iterators derive arc ids from the edge index that
   [Graph.iter_incident_edges] supplies; the pre-rewrite ones rebuilt
   them through [Arc.make]'s binary search.  Keep the old enumeration
   as the oracle, compared order-insensitively. *)
let prop_arc_iters_match_make =
  qtest "iter_out/in/incident agree with Arc.make enumeration" (arb_gnp ()) (fun g ->
      let sorted r = List.sort compare !r in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        let got = ref [] and oracle = ref [] in
        Arc.iter_out g v (fun a -> got := a :: !got);
        Graph.iter_neighbors g v (fun w -> oracle := Arc.make g v w :: !oracle);
        if sorted got <> sorted oracle then ok := false;
        let got = ref [] and oracle = ref [] in
        Arc.iter_in g v (fun a -> got := a :: !got);
        Graph.iter_neighbors g v (fun w -> oracle := Arc.make g w v :: !oracle);
        if sorted got <> sorted oracle then ok := false;
        let got = ref [] and oracle = ref [] in
        Arc.iter_incident g v (fun a -> got := a :: !got);
        Graph.iter_neighbors g v (fun w ->
            oracle := Arc.make g v w :: Arc.make g w v :: !oracle);
        if sorted got <> sorted oracle then ok := false
      done;
      !ok)

let prop_arcs_partition =
  qtest "out-arcs over all nodes = all arcs" (arb_gnp ()) (fun g ->
      let seen = Array.make (Arc.count g) false in
      for v = 0 to Graph.n g - 1 do
        Arc.iter_out g v (fun a ->
            if seen.(a) then failwith "dup";
            seen.(a) <- true)
      done;
      Array.for_all Fun.id seen)

let () =
  Alcotest.run "fdlsp_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "create basic" `Quick test_create_basic;
          Alcotest.test_case "create rejects" `Quick test_create_rejects;
          Alcotest.test_case "empty graph" `Quick test_empty;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edge index" `Quick test_edge_index;
          Alcotest.test_case "common neighbors" `Quick test_common_neighbors;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "remove nodes" `Quick test_remove_nodes;
          Alcotest.test_case "complement" `Quick test_complement;
          prop_degree_sum;
          prop_mem_edge_symmetric;
          prop_complement_involution;
        ] );
      ( "gen",
        [
          Alcotest.test_case "shapes" `Quick test_gen_shapes;
          Alcotest.test_case "random tree" `Quick test_gen_tree;
          Alcotest.test_case "gnm" `Quick test_gen_gnm;
          Alcotest.test_case "udg vs brute force" `Quick test_gen_udg;
          Alcotest.test_case "udg radius boundary" `Quick test_udg_edges_radius_boundary;
          Alcotest.test_case "udg negative coordinates" `Quick test_udg_edges_negative_coords;
          prop_udg_edges_straddle_origin;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "bfs disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "within" `Quick test_within;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "dfs preorder" `Quick test_dfs_preorder;
          prop_within_matches_bfs;
          prop_within_reused_scratch;
          prop_virtual_graph_matches_bfs;
        ] );
      ( "clique",
        [
          Alcotest.test_case "triangles" `Quick test_triangles;
          Alcotest.test_case "max clique" `Quick test_max_clique;
          Alcotest.test_case "embedded K4" `Quick test_max_clique_embedded;
          prop_max_clique_is_clique;
          prop_maximal_cliques_cover;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "file roundtrip" `Quick test_io_file;
          prop_io_roundtrip;
        ] );
      ( "arc",
        [
          Alcotest.test_case "basics" `Quick test_arcs_basic;
          Alcotest.test_case "iteration" `Quick test_arcs_iter;
          prop_arc_roundtrip;
          prop_arc_iters_match_make;
          prop_arcs_partition;
          prop_arc_tables_match_model;
          Alcotest.test_case "stamped set" `Quick test_stamp;
        ] );
    ]
