(* Shared qcheck substrate for the test suite: graph arbitraries with a
   real edge-subset shrinker, plus the [qtest] wrapper every suite uses.

   Dune compiles the whole directory into each test executable, so this
   module is the single definition site for the graph generators that
   used to be copy-pasted across test files.  Per-file distribution
   tweaks (max [n], edge density) stay at the call sites as optional
   arguments.

   [FDLSP_QCHECK_COUNT] caps every property's case count from the
   environment (the [fast] alias sets it low for a quick smoke loop). *)

open Fdlsp_graph

let rng seed () = Random.State.make seed

let case_count count =
  match Sys.getenv_opt "FDLSP_QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with
      | Some cap when cap > 0 -> min cap count
      | _ -> count)
  | None -> count

let qtest name ~count arb prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:(case_count count) arb prop)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Edge-subset shrinker: a failing graph first tries to lose its last
   node, then aligned chunks of its edge list (halving chunk sizes down
   to single edges).  Candidates are ordered most-aggressive first and
   qcheck re-shrinks whichever candidate still fails, so counterexamples
   converge to a minimum under node removal + edge-subset removal.
   [keep] filters candidates so shape invariants (tree, connected)
   survive shrinking. *)
let shrink_graph ?(keep = fun _ -> true) g =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let m = Array.length edges in
  let without_range lo hi =
    let l = ref [] in
    for i = m - 1 downto 0 do
      if i < lo || i >= hi then l := edges.(i) :: !l
    done;
    Graph.create ~n !l
  in
  let drop_node =
    if n <= 1 then []
    else
      [
        Graph.create ~n:(n - 1)
          (List.filter (fun (u, v) -> u < n - 1 && v < n - 1) (Array.to_list edges));
      ]
  in
  let drop_edges =
    if m = 0 then []
    else begin
      let acc = ref [] in
      let size = ref (max 1 (m / 2)) in
      let looping = ref true in
      while !looping do
        let lo = ref 0 in
        while !lo < m do
          acc := without_range !lo (min m (!lo + !size)) :: !acc;
          lo := !lo + !size
        done;
        if !size = 1 then looping := false else size := !size / 2
      done;
      List.rev !acc
    end
  in
  List.to_seq (List.filter keep (drop_node @ drop_edges))

let make ?keep gen = QCheck2.Gen.make_primitive ~gen ~shrink:(shrink_graph ?keep)

(* ------------------------------------------------------------------ *)
(* Arbitraries                                                         *)
(* ------------------------------------------------------------------ *)

let arb_gnp ?(min_n = 1) ?(max_n = 16) ?(max_p = 1.) () =
  make (fun st ->
      let n = min_n + Random.State.int st max_n in
      let p = Random.State.float st max_p in
      Gen.gnp st ~n ~p)

let arb_udg () =
  make (fun st ->
      let n = 5 + Random.State.int st 40 in
      let side = 3. +. Random.State.float st 5. in
      fst (Gen.udg st ~n ~side ~radius:1.))

let is_tree g = Graph.m g = Graph.n g - 1 && Traversal.is_connected g

let arb_tree ?(min_n = 2) ?(max_n = 60) () =
  make ~keep:is_tree (fun st -> Gen.random_tree st (min_n + Random.State.int st max_n))

(* ------------------------------------------------------------------ *)
(* Service churn hints                                                  *)
(* ------------------------------------------------------------------ *)

(* Abstract churn events for {!Fdlsp_core.Service} properties.  A hint
   carries raw picks (to be taken modulo the live/dead/edge population
   at realization time) instead of concrete node ids, so the same value
   stays meaningful as the service state evolves — and, crucially, so
   QCheck2's integrated shrinking applies: hints are built from plain
   [int]/[list] generators, and a shrunk hint list is still a valid
   churn script.  Test files realize hints into [Service.event]s against
   the live state (see test_service.ml). *)
type service_hint =
  | H_join of int list  (* fresh node; picks select live neighbors *)
  | H_rejoin of int * int list  (* revive the k-th dead ghost *)
  | H_leave of int  (* k-th live node leaves *)
  | H_move of int * int list  (* k-th live node re-homes *)
  | H_degrade of int  (* k-th existing link degrades *)

let gen_service_hint =
  let open QCheck2.Gen in
  let pick = nat in
  let picks = list_size (int_bound 3) pick in
  oneof
    [
      map (fun ks -> H_join ks) picks;
      map2 (fun k ks -> H_rejoin (k, ks)) pick picks;
      map (fun k -> H_leave k) pick;
      map2 (fun k ks -> H_move (k, ks)) pick picks;
      map (fun k -> H_degrade k) pick;
    ]

(* A churn script: batches of hints.  Shrinks by dropping batches,
   dropping hints within a batch, and shrinking individual hints. *)
let gen_service_batches ?(max_batches = 6) ?(max_events = 8) () =
  QCheck2.Gen.(
    list_size (int_bound max_batches)
      (list_size (int_bound max_events) gen_service_hint))

(* Realize one batch of abstract hints into concrete events against a
   service's current state.  Fresh joins take consecutive ids from
   [Service.nodes]; picks are taken modulo the live/dead/edge
   populations; unrealizable hints (no dead ghost to revive, no link to
   degrade) drop out.  Shared by the service oracle suite and the
   chaos-recovery suite so both drive the same churn distribution. *)
let realize_batch svc hints =
  let module Service = Fdlsp_core.Service in
  let pick xs k = List.nth xs (k mod List.length xs) in
  let n0 = Service.nodes svc in
  let ids = List.init n0 Fun.id in
  let live = List.filter (Service.alive svc) ids in
  let dead = List.filter (fun v -> not (Service.alive svc v)) ids in
  let g = Service.graph svc in
  let m = Graph.m g in
  let fresh = ref 0 in
  let neighbors_for self ks =
    List.sort_uniq compare
      (List.filter_map
         (fun k ->
           if live = [] then None
           else
             let v = pick live k in
             if v = self then None else Some v)
         ks)
  in
  List.filter_map
    (fun hint ->
      match hint with
      | H_join ks ->
          let node = n0 + !fresh in
          incr fresh;
          Some (Service.Join { node; neighbors = neighbors_for node ks })
      | H_rejoin (k, ks) ->
          if dead = [] then None
          else
            let node = pick dead k in
            Some (Service.Join { node; neighbors = neighbors_for node ks })
      | H_leave k -> if live = [] then None else Some (Service.Leave (pick live k))
      | H_move (k, ks) ->
          if live = [] then None
          else
            let node = pick live k in
            Some (Service.Move { node; neighbors = neighbors_for node ks })
      | H_degrade k ->
          if m = 0 then None
          else
            let u, v = Graph.edge_endpoints g (k mod m) in
            Some (Service.Degrade { u; v }))
    hints

(* One random topology event per batch, as [Churn] feeds the service: a
   fresh join, a leave, a new link (the endpoint re-homes onto its
   current neighbors plus one), a lost link (degrade), or a move.  After
   every event the schedule must validate and the id space must keep
   every ghost; the first violation raises [Failure] naming the step.
   Shared by the single-event repair tests of several suites. *)
let single_event_churn rng svc ~steps =
  let module Service = Fdlsp_core.Service in
  for step = 1 to steps do
    let n = Service.nodes svc and g = Service.graph svc in
    let live = List.filter (Service.alive svc) (List.init n Fun.id) in
    let pick () = List.nth live (Random.State.int rng (List.length live)) in
    let sample ~avoid k = List.filter (( <> ) avoid) (List.init k (fun _ -> pick ())) in
    let ev =
      if live = [] then Service.Join { node = n; neighbors = [] }
      else
        let u = pick () in
        let nbrs = Graph.neighbors g u in
        match Random.State.int rng 5 with
        | 0 -> Service.Join { node = n; neighbors = sample ~avoid:n 2 }
        | 1 -> Service.Leave u
        | 2 -> Service.Move { node = u; neighbors = sample ~avoid:u 1 @ Array.to_list nbrs }
        | 3 when nbrs <> [||] ->
            Service.Degrade { u; v = nbrs.(Random.State.int rng (Array.length nbrs)) }
        | _ -> Service.Move { node = u; neighbors = sample ~avoid:u 3 }
    in
    ignore (Service.apply svc [ ev ]);
    let grew = match ev with Service.Join _ -> 1 | _ -> 0 in
    if Service.nodes svc <> n + grew then failwith (Printf.sprintf "step %d: ids moved" step);
    if not (Fdlsp_color.Schedule.valid (Service.schedule svc)) then
      failwith (Printf.sprintf "step %d: invalid schedule" step)
  done

let arb_connected ?(max_n = 25) () =
  make ~keep:Traversal.is_connected (fun st ->
      let n = 3 + Random.State.int st max_n in
      (* tree + extra random edges: connected by construction *)
      let t = Gen.random_tree st n in
      let extra = Random.State.int st (2 * n) in
      let edges = ref (Array.to_list (Graph.edges t)) in
      for _ = 1 to extra do
        let u = Random.State.int st n and v = Random.State.int st n in
        let e = (min u v, max u v) in
        if u <> v && not (List.mem e !edges) then edges := e :: !edges
      done;
      Graph.create ~n !edges)
