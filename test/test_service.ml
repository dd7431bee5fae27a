(* Differential-oracle suite for the long-lived scheduling service.

   The headline invariant: after EVERY batch of churn the incremental
   schedule is Definition-2 valid and within [Bounds.upper] slots of the
   current graph — the same Lemma-6 budget a from-scratch first-fit
   obeys on that graph.  Properties drive the service with abstract
   churn hints (Generators.service_hint, realized against the evolving
   live state so shrinking stays meaningful) over four graph families,
   and diff every step against the from-scratch Greedy oracle.

   Also here: the coalescer's unit contract, the exact per-batch
   recolor count with refine off, the provably-zero-touch
   empty-batch fast path (pinned through the metrics gauge), and the
   snapshot/restore round-trip — restore + replay-tail must be
   state-identical to the run that never snapshotted, and tampered
   snapshots must be rejected. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core
module Metrics = Fdlsp_sim.Metrics

(* Hint realization lives in {!Generators.realize_batch}, shared with
   the chaos-recovery suite. *)
let realize_batch = Generators.realize_batch

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

(* One churn script against one starting graph: after every batch the
   incremental schedule must validate, answer queries consistently, and
   stay within the slot budget the from-scratch oracle obeys on the same
   graph. *)
let oracle_holds (g, scripts) =
  let svc = Service.create (Greedy.color g) in
  (* each sub-check names itself on failure *)
  let check ok fmt = Printf.ksprintf (fun msg -> ok || QCheck2.Test.fail_report msg) fmt in
  List.for_all
    (fun hints ->
      let evs = realize_batch svc hints in
      let n_before = Service.nodes svc in
      let b = Service.apply svc evs in
      let g' = Service.graph svc in
      let ub = Bounds.upper g' in
      let sched = Service.schedule svc in
      (* ids are stable: the id space never shrinks, dead ghosts keep
         their ids and hold no links *)
      let linked_ghost =
        List.find_opt
          (fun v -> not (Service.alive svc v || Graph.degree g' v = 0))
          (List.init (Service.nodes svc) Fun.id)
      in
      let query_mismatch =
        let bad = ref None in
        let probe u v =
          match Service.slot_of_arc svc u v with
          | Some s when s = Schedule.get sched (Arc.make g' u v) -> ()
          | answer -> if !bad = None then bad := Some (u, v, answer)
        in
        Graph.iter_edges g' (fun _ u v ->
            probe u v;
            probe v u);
        !bad
      in
      let oracle = Greedy.color g' in
      check (Schedule.valid sched) "service schedule invalid"
      && check (Service.nodes svc >= n_before) "id space shrank: %d -> %d nodes" n_before
           (Service.nodes svc)
      && (match linked_ghost with
         | None -> true
         | Some v -> check false "dead node %d still has %d links" v (Graph.degree g' v))
      && check
           (b.Service.b_slots = Schedule.num_slots sched)
           "receipt b_slots %d, schedule has %d slots" b.Service.b_slots
           (Schedule.num_slots sched)
      && check (Service.num_slots svc <= ub) "service uses %d slots, upper bound %d"
           (Service.num_slots svc) ub
      && (match query_mismatch with
         | None -> true
         | Some (u, v, answer) ->
             check false "slot_of_arc %d->%d answers %s, schedule holds %d" u v
               (match answer with Some s -> string_of_int s | None -> "None")
               (Schedule.get sched (Arc.make g' u v)))
      && check (Schedule.valid oracle) "greedy oracle schedule invalid"
      && check (Schedule.num_slots oracle <= ub) "greedy oracle uses %d slots, upper bound %d"
           (Schedule.num_slots oracle) ub)
    scripts

let with_scripts arb =
  QCheck2.Gen.pair arb (Generators.gen_service_batches ())

let prop_oracle_gnp =
  Generators.qtest "service oracle: gnp" ~count:150
    (with_scripts (Generators.arb_gnp ~max_n:14 ()))
    oracle_holds

let prop_oracle_udg =
  Generators.qtest "service oracle: udg" ~count:100
    (with_scripts (Generators.arb_udg ()))
    oracle_holds

let prop_oracle_tree =
  Generators.qtest "service oracle: tree" ~count:100
    (with_scripts (Generators.arb_tree ~max_n:30 ()))
    oracle_holds

let prop_oracle_connected =
  Generators.qtest "service oracle: connected" ~count:100
    (with_scripts (Generators.arb_connected ~max_n:16 ()))
    oracle_holds

(* ------------------------------------------------------------------ *)
(* Repair cost                                                         *)
(* ------------------------------------------------------------------ *)

(* A batch costs what it recolors: with refine off, every arc that is
   new or changed slot touches a node the coalesced batch joins or
   moves, and the receipt counts each arc of those nodes' links exactly
   once, nothing else — the recolor-pass lemma of [Service] seen from
   the outside. *)
let recolors_only_reset_arcs (g, scripts) =
  let svc = Service.create ~refine:false (Greedy.color g) in
  let slots () =
    let h = Hashtbl.create 64 in
    Graph.iter_edges (Service.graph svc) (fun _ u v ->
        Hashtbl.replace h (u, v) (Service.slot_of_arc svc u v);
        Hashtbl.replace h (v, u) (Service.slot_of_arc svc v u));
    h
  in
  List.for_all
    (fun hints ->
      let evs = realize_batch svc hints in
      let reset = Hashtbl.create 8 in
      List.iter
        (function
          | Service.Op_join (v, _) | Service.Op_move (v, _) -> Hashtbl.replace reset v ()
          | Service.Op_leave _ | Service.Op_degrade _ -> ())
        (Service.coalesce svc evs);
      let is_reset v = Hashtbl.mem reset v in
      let before = slots () in
      let b = Service.apply svc evs in
      let after = slots () in
      let reset_links = ref 0 and stray = ref [] in
      Hashtbl.iter
        (fun (u, v) s ->
          if is_reset u || is_reset v then begin if u < v then incr reset_links end
          else if Hashtbl.find_opt before (u, v) <> Some s then stray := (u, v) :: !stray)
        after;
      match !stray with
      | (u, v) :: _ ->
          QCheck2.Test.fail_reportf "arc %d->%d is new or changed slot but touches no reset node"
            u v
      | [] ->
          (b.Service.b_recolored = 2 * !reset_links
          && b.Service.b_touched = b.Service.b_recolored)
          || QCheck2.Test.fail_reportf
               "recolored %d arcs, touched %d, reset nodes have %d links" b.Service.b_recolored
               b.Service.b_touched !reset_links)
    scripts

let prop_recolors_only_reset_arcs =
  Generators.qtest "refine off: a batch recolors exactly its reset nodes' arcs" ~count:150
    (with_scripts (Generators.arb_gnp ~max_n:14 ()))
    recolors_only_reset_arcs

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Straight-through vs snapshot-at-k + replay-tail: exact state equality
   (schedule colors, alive set, totals — Service.equal), for every
   prefix length.  Events are realized once against the straight run so
   both sides replay the identical concrete stream. *)
let snapshot_roundtrip (g, scripts) =
  let straight = Service.create (Greedy.color g) in
  let concrete =
    List.map
      (fun hints ->
        let evs = realize_batch straight hints in
        ignore (Service.apply straight evs);
        evs)
      scripts
  in
  let nb = List.length concrete in
  List.for_all
    (fun k ->
      let a = Service.create (Greedy.color g) in
      List.iteri (fun i evs -> if i < k then ignore (Service.apply a evs)) concrete;
      let b = Service.restore (Service.snapshot a) in
      List.iteri (fun i evs -> if i >= k then ignore (Service.apply b evs)) concrete;
      Service.equal b straight)
    (List.init (nb + 1) Fun.id)

let prop_snapshot =
  Generators.qtest "snapshot+replay-tail = straight-through" ~count:60
    (with_scripts (Generators.arb_connected ~max_n:12 ()))
    snapshot_roundtrip

(* Edge case: snapshots of services with zero live state — an empty id
   space, an all-dead population, a service grown and then emptied —
   must round-trip exactly, and the restored side must keep accepting
   churn.  Pins the degenerate corner of the snapshot format (empty
   alive bitmap, zero-arc schedule). *)
let test_snapshot_empty_service () =
  let roundtrip name svc =
    let r = Service.restore (Service.snapshot svc) in
    Alcotest.(check bool) (name ^ " round-trips") true (Service.equal svc r);
    r
  in
  (* zero-node service *)
  let z = Service.create (Greedy.color (Graph.create ~n:0 [])) in
  let r = roundtrip "zero-node service" z in
  ignore
    (Service.apply r
       [
         Service.Join { node = 0; neighbors = [] };
         Service.Join { node = 1; neighbors = [ 0 ] };
       ]);
  Alcotest.(check bool) "restored empty service accepts churn" true
    (Schedule.valid (Service.schedule r) && Service.live r = 2);
  (* every node dead *)
  let d = Service.create (Greedy.color (Gen.cycle 4)) in
  ignore
    (Service.apply d
       [ Service.Leave 0; Service.Leave 1; Service.Leave 2; Service.Leave 3 ]);
  let r = roundtrip "all-dead service" d in
  ignore (Service.apply r [ Service.Join { node = 1; neighbors = [] } ]);
  Alcotest.(check bool) "ghost revives after restore" true (Service.alive r 1);
  (* grown, then emptied *)
  let e = Service.create (Greedy.color (Graph.create ~n:0 [])) in
  ignore (Service.apply e [ Service.Join { node = 0; neighbors = [] } ]);
  ignore (Service.apply e [ Service.Join { node = 1; neighbors = [ 0 ] } ]);
  ignore (Service.apply e [ Service.Leave 0; Service.Leave 1 ]);
  ignore (roundtrip "grown-then-emptied service" e)

let test_snapshot_tamper () =
  let g = Gen.cycle 8 in
  let svc = Service.create (Greedy.color g) in
  ignore
    (Service.apply svc
       [ Service.Join { node = 8; neighbors = [ 0; 3 ] }; Service.Leave 5 ]);
  let snap = Service.snapshot svc in
  (* restore of the untampered blob round-trips *)
  Alcotest.(check bool) "clean restore equal" true
    (Service.equal svc (Service.restore snap));
  (* flip one payload byte: checksum must reject *)
  let flip i =
    let b = Bytes.of_string snap in
    Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
    Bytes.to_string b
  in
  let expect_failure name s =
    match Service.restore s with
    | _ -> Alcotest.failf "%s: tampered snapshot accepted" name
    | exception Failure _ -> ()
  in
  expect_failure "flip mid-payload" (flip (String.length snap / 2));
  expect_failure "flip first byte" (flip 0);
  expect_failure "truncated"
    (String.sub snap 0 (String.length snap - 7));
  expect_failure "garbage" "not a snapshot at all";
  expect_failure "empty" ""

(* ------------------------------------------------------------------ *)
(* Coalescer units                                                     *)
(* ------------------------------------------------------------------ *)

let svc_of g = Service.create (Greedy.color g)

let op : Service.op Alcotest.testable =
  Alcotest.testable
    (fun ppf o ->
      match o with
      | Service.Op_leave v -> Format.fprintf ppf "leave %d" v
      | Service.Op_move (v, ns) ->
          Format.fprintf ppf "move %d -> [%s]" v
            (String.concat ";" (List.map string_of_int ns))
      | Service.Op_join (v, ns) ->
          Format.fprintf ppf "join %d -> [%s]" v
            (String.concat ";" (List.map string_of_int ns))
      | Service.Op_degrade (u, v) -> Format.fprintf ppf "degrade %d-%d" u v)
    ( = )

let test_coalesce_cancel () =
  let svc = svc_of (Gen.cycle 6) in
  Alcotest.(check (list op))
    "join then leave cancels" []
    (Service.coalesce svc
       [ Service.Join { node = 6; neighbors = [ 0 ] }; Service.Leave 6 ]);
  Alcotest.(check (list op))
    "leave of a dead ghost drops" []
    (let svc = svc_of (Gen.cycle 6) in
     ignore (Service.apply svc [ Service.Leave 2 ]);
     Service.coalesce svc [ Service.Leave 2 ])

let test_coalesce_move_merge () =
  let svc = svc_of (Gen.cycle 6) in
  Alcotest.(check (list op))
    "last move wins"
    [ Service.Op_move (0, [ 2; 3 ]) ]
    (Service.coalesce svc
       [
         Service.Move { node = 0; neighbors = [ 1 ] };
         Service.Move { node = 0; neighbors = [ 3; 2; 2 ] };
       ]);
  Alcotest.(check (list op))
    "leave then rejoin is a move"
    [ Service.Op_move (2, [ 0 ]) ]
    (Service.coalesce svc
       [ Service.Leave 2; Service.Join { node = 2; neighbors = [ 0 ] } ])

let test_coalesce_idempotent_dups () =
  let svc = svc_of (Gen.cycle 6) in
  Alcotest.(check (list op))
    "duplicate leaves collapse"
    [ Service.Op_leave 1 ]
    (Service.coalesce svc [ Service.Leave 1; Service.Leave 1; Service.Leave 1 ]);
  Alcotest.(check (list op))
    "degrades dedupe across orientation"
    [ Service.Op_degrade (0, 1) ]
    (Service.coalesce svc
       [ Service.Degrade { u = 0; v = 1 }; Service.Degrade { u = 1; v = 0 } ]);
  Alcotest.(check (list op))
    "degrade subsumed by a node op"
    [ Service.Op_leave 0 ]
    (Service.coalesce svc
       [ Service.Leave 0; Service.Degrade { u = 0; v = 1 } ])

let test_empty_batch_fast_path () =
  let reg = Metrics.create () in
  let svc =
    Service.create ~metrics:(Metrics.sink reg) (Greedy.color (Gen.cycle 8))
  in
  let g_before = Service.graph svc in
  let b = Service.apply svc [] in
  Alcotest.(check int) "no arcs touched" 0 b.Service.b_touched;
  Alcotest.(check (float 0.)) "zero touched fraction" 0. b.Service.b_touched_frac;
  Alcotest.(check bool) "graph physically untouched" true
    (g_before == Service.graph svc);
  Alcotest.(check (option (float 0.)))
    "touched gauge reads zero" (Some 0.)
    (Metrics.gauge_value reg Metrics.Name.service_touched_frac);
  (* a batch that coalesces to nothing takes the same fast path *)
  let b =
    Service.apply svc
      [ Service.Join { node = 8; neighbors = [ 0 ] }; Service.Leave 8 ]
  in
  Alcotest.(check int) "cancelled batch touches nothing" 0 b.Service.b_touched;
  Alcotest.(check bool) "graph still physically untouched" true
    (g_before == Service.graph svc);
  let t = Service.totals svc in
  Alcotest.(check int) "events still counted" 2 t.Service.events;
  Alcotest.(check int) "no ops applied" 0 t.Service.ops

(* ------------------------------------------------------------------ *)
(* Idempotence                                                         *)
(* ------------------------------------------------------------------ *)

(* Re-applying a batch whose net effect is already applied — every node
   op re-homed onto its current neighborhood, leaves of already-dead
   nodes — must coalesce to the zero-touch fast path: no ops, no arcs
   written, the graph physically unchanged.  This is the replayed-
   duplicate shape a WAL recovery or an at-least-once transport hands
   the service. *)
let idempotent_replay (g, scripts) =
  let svc = Service.create (Greedy.color g) in
  List.for_all
    (fun hints ->
      let evs = realize_batch svc hints in
      (match Service.apply svc evs with
      | _ -> ()
      | exception Invalid_argument _ -> ());
      let cur_nbrs v = Array.to_list (Graph.neighbors (Service.graph svc) v) in
      let redo =
        List.filter_map
          (fun ev ->
            match (ev : Service.event) with
            | Service.Join { node; _ } | Service.Move { node; _ } ->
                if Service.alive svc node then
                  Some (Service.Move { node; neighbors = cur_nbrs node })
                else None
            | Service.Leave v ->
                if Service.alive svc v then None else Some (Service.Leave v)
            | Service.Degrade _ -> None)
          evs
      in
      let g_before = Service.graph svc in
      let b = Service.apply svc redo in
      b.Service.b_ops = 0
      && b.Service.b_touched = 0
      && b.Service.b_touched_frac = 0.
      && Service.graph svc == g_before)
    scripts

let prop_idempotent =
  Generators.qtest "replayed net-effect batch touches zero arcs" ~count:100
    (with_scripts (Generators.arb_connected ~max_n:14 ()))
    idempotent_replay

(* ------------------------------------------------------------------ *)
(* Budget enforcement (refine pass)                                    *)
(* ------------------------------------------------------------------ *)

(* Mass departure from a dense graph: carried survivor colors would
   overshoot the shrunken graph's budget; the refine pass must pull the
   schedule back under [Bounds.upper] of the current graph. *)
let test_budget_after_mass_leave () =
  let g = Gen.complete 10 in
  let svc = Service.create (Greedy.color g) in
  let b =
    Service.apply svc
      [ Service.Leave 9; Service.Leave 8; Service.Leave 7; Service.Leave 6;
        Service.Leave 5; Service.Leave 4 ]
  in
  let g' = Service.graph svc in
  Alcotest.(check bool) "valid after mass leave" true
    (Schedule.valid (Service.schedule svc));
  Alcotest.(check bool)
    (Printf.sprintf "slots %d within budget %d" b.Service.b_slots
       (Bounds.upper g'))
    true
    (Service.num_slots svc <= Bounds.upper g')

let () =
  Alcotest.run "fdlsp_service"
    [
      ( "coalesce",
        [
          Alcotest.test_case "join+leave cancel" `Quick test_coalesce_cancel;
          Alcotest.test_case "move merge" `Quick test_coalesce_move_merge;
          Alcotest.test_case "idempotent duplicates" `Quick
            test_coalesce_idempotent_dups;
          Alcotest.test_case "empty-batch fast path" `Quick
            test_empty_batch_fast_path;
        ] );
      ( "oracle",
        [ prop_oracle_gnp; prop_oracle_udg; prop_oracle_tree;
          prop_oracle_connected ] );
      ("repair cost", [ prop_recolors_only_reset_arcs ]);
      ( "snapshot",
        [
          prop_snapshot;
          Alcotest.test_case "empty-service round-trips" `Quick
            test_snapshot_empty_service;
          Alcotest.test_case "tamper rejection" `Quick test_snapshot_tamper;
        ] );
      ("idempotence", [ prop_idempotent ]);
      ( "budget",
        [
          Alcotest.test_case "mass leave stays within budget" `Quick
            test_budget_after_mass_leave;
        ] );
    ]
