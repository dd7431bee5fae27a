(* Dynamic network: the paper's future-work scenario (Section 9).

   Sensors join, fail and move while the network keeps a valid TDMA
   link schedule at all times.  Each topology event is one batch
   through the scheduling service: only arcs around the affected nodes
   are (re)colored, and we track how the slot count drifts compared to
   recomputing from scratch.

   Run with: dune exec examples/dynamic_network.exe *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_core

let () =
  let rng = Random.State.make [| 99 |] in
  let g, _ = Gen.udg rng ~n:50 ~side:7. ~radius:1.5 in
  let dfs = Dfs_sched.run g in
  (* refine off: measure the raw drift of local repair *)
  let svc = Service.create ~refine:false dfs.Dfs_sched.schedule in
  Printf.printf "Initial network: %d sensors, %d links, %d slots\n" (Graph.n g) (Graph.m g)
    (Service.num_slots svc);

  let total_recolored = ref 0 in
  let apply op ev =
    let cost = (Service.apply svc [ ev ]).Service.b_recolored in
    total_recolored := !total_recolored + cost;
    let valid = Schedule.valid (Service.schedule svc) in
    Printf.printf "%-34s -> %2d arcs recolored, %2d slots, valid=%b\n" op cost
      (Service.num_slots svc) valid;
    assert valid
  in

  (* ten sensors join near random existing ones *)
  for _ = 1 to 10 do
    let n = Service.nodes svc in
    let anchor = Random.State.int rng n in
    let extra = Random.State.int rng n in
    let nbrs = if extra = anchor then [ anchor ] else [ anchor; extra ] in
    apply
      (Printf.sprintf "sensor %d joins (%d links)" n (List.length nbrs))
      (Service.Join { node = n; neighbors = nbrs })
  done;

  (* five sensors fail *)
  for _ = 1 to 5 do
    let v = Random.State.int rng (Service.nodes svc) in
    apply (Printf.sprintf "sensor %d fails" v) (Service.Leave v)
  done;

  (* five sensors move to new positions (all links replaced) *)
  for _ = 1 to 5 do
    let n = Service.nodes svc in
    let v = Random.State.int rng n in
    let nbrs =
      List.init 2 (fun _ -> Random.State.int rng n) |> List.filter (fun w -> w <> v)
    in
    apply
      (Printf.sprintf "sensor %d moves (%d new links)" v (List.length nbrs))
      (Service.Move { node = v; neighbors = nbrs })
  done;

  let g' = Service.graph svc in
  let sched' = Service.schedule svc in
  let patched = Service.num_slots svc in
  let fresh = Schedule.num_slots (Dfs_sched.run g').Dfs_sched.schedule in
  Printf.printf "\nAfter churn: %d slots patched-in-place vs %d from a fresh DFS run\n" patched
    fresh;
  Printf.printf "Total local recoloring work: %d arcs across 20 topology events\n"
    !total_recolored;
  Printf.printf "(a full recompute would recolor all %d arcs every event)\n" (Arc.count g');

  (* The same repair as a distributed protocol (Local_update): measure
     what one more join costs the network in messages and time. *)
  (* stage a joining sensor: rebuild with one extra node linked to two
     existing ones, carry colors over, leave the newcomer's arcs blank *)
  let n' = Graph.n g' in
  let g2 =
    Graph.create ~n:(n' + 1) ((n', 0) :: (n', 1) :: Array.to_list (Graph.edges g'))
  in
  let sched2 = Schedule.make g2 in
  Graph.iter_edges g' (fun _ u v ->
      Schedule.set sched2 (Arc.make g2 u v) (Schedule.get sched' (Arc.make g' u v));
      Schedule.set sched2 (Arc.make g2 v u) (Schedule.get sched' (Arc.make g' v u)));
  let patched2, stats = Local_update.join g2 sched2 ~node:n' in
  assert (Schedule.valid patched2);
  Printf.printf
    "\nDistributed join protocol: sensor %d scheduled in %d async time units and %d \
     messages\n"
    n' stats.Fdlsp_sim.Stats.rounds stats.Fdlsp_sim.Stats.messages;
  let full = Dfs_sched.run g2 in
  Printf.printf "(a full DFS reschedule would take %d time units and %d messages)\n"
    full.Dfs_sched.stats.Fdlsp_sim.Stats.rounds full.Dfs_sched.stats.Fdlsp_sim.Stats.messages
