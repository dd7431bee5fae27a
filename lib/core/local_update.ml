open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

type msg =
  | Token
  | Return
  | Query
  | Reply of (Arc.id * int) array
  | Announce of (Arc.id * int) array
  | Forwarded of (Arc.id * int) array
  | Ack

type node = {
  mutable pending_replies : int;
  mutable pending_acks : int;
  mutable queue : int list; (* coordinator: targets still to visit *)
  known : int Arc.Tbl.t;
  mutable changes : (Arc.id * int) list;
  mutable is_coordinator : bool;
}

(* Steady-state knowledge a node serves in a reply: the colors of arcs
   incident to itself and its neighbors (what Announce/Forwarded keep
   fresh between events). *)
let halo_table g sched v =
  let out = ref [] in
  let add w = Arc.iter_incident g w (fun a ->
      let c = Schedule.get sched a in
      if c >= 0 then out := (a, c) :: !out)
  in
  add v;
  Graph.iter_neighbors g v add;
  (* arcs may repeat (shared halo); last write wins, colors agree *)
  Array.of_list !out

(* The token holder's local work: color every uncolored incident arc,
   then recolor any incident arc clashing under the gathered
   distance-2 knowledge. *)
let patch_own ~scratch g st v =
  let fresh = ref [] in
  let color_of b = match Arc.Tbl.find_opt st.known b with Some c -> c | None -> -1 in
  let first_fit a = Conflict.first_fit ~scratch g a color_of in
  Arc.iter_incident g v (fun a ->
      if not (Arc.Tbl.mem st.known a) then begin
        let c = first_fit a in
        Arc.Tbl.replace st.known a c;
        fresh := (a, c) :: !fresh
      end);
  Arc.iter_incident g v (fun a ->
      let ca = color_of a in
      if ca >= 0 then begin
        let clash = ref false in
        Conflict.iter_conflicting ~scratch g a (fun b ->
            if (not !clash) && color_of b = ca then clash := true);
        if !clash then begin
          Arc.Tbl.remove st.known a;
          let c = first_fit a in
          Arc.Tbl.replace st.known a c;
          fresh := (a, c) :: !fresh
        end
      end);
  st.changes <- !fresh @ st.changes;
  List.rev !fresh

let refresh g sched ~coordinator ~targets =
  List.iter
    (fun w ->
      if not (Graph.mem_edge g coordinator w) then
        invalid_arg "Local_update.refresh: target is not a coordinator neighbor")
    targets;
  (* work on a copy: every closure below must see the same fresh array *)
  let sched = Schedule.copy sched in
  let scratch = Conflict.scratch g in
  let init _ =
    {
      pending_replies = 0;
      pending_acks = 0;
      queue = [];
      known = Arc.Tbl.create 32;
      changes = [];
      is_coordinator = false;
    }
  in
  let start_visit ctx st =
    let v = Async.self ctx in
    Arc.Tbl.reset st.known;
    Array.iter
      (fun (a, c) -> Arc.Tbl.replace st.known a c)
      (halo_table g sched v);
    (* fold in changes this run already made locally (coordinator after
       its targets ran is not revisited, so only fresh tables matter) *)
    let nbrs = Async.neighbors ctx in
    st.pending_replies <- Array.length nbrs;
    Array.iter (fun w -> Async.send ctx w Query) nbrs
  in
  let pass_or_finish ctx st =
    match st.queue with
    | w :: rest ->
        st.queue <- rest;
        Async.send ctx w Token
    | [] -> ()
  in
  let finish_visit ctx st fresh =
    let nbrs = Async.neighbors ctx in
    if Array.length nbrs = 0 then
      (* only the coordinator can be isolated; targets have it as a
         neighbor by construction *)
      pass_or_finish ctx st
    else begin
      st.pending_acks <- Array.length nbrs;
      let payload = Array.of_list fresh in
      Array.iter (fun w -> Async.send ctx w (Announce payload)) nbrs
    end
  in
  let handler coord ctx st ~sender msg =
    (match msg with
    | Token -> start_visit ctx st
    | Return -> pass_or_finish ctx st
    | Query -> Async.send ctx sender (Reply (halo_table g sched (Async.self ctx)))
    | Reply table ->
        Array.iter (fun (a, c) -> Arc.Tbl.replace st.known a c) table;
        st.pending_replies <- st.pending_replies - 1;
        if st.pending_replies = 0 then begin
          let fresh = patch_own ~scratch g st (Async.self ctx) in
          (* apply immediately so later visits and replies see it *)
          List.iter (fun (a, c) -> Schedule.set sched a c) fresh;
          finish_visit ctx st fresh
        end
    | Announce table ->
        Array.iter (fun (a, c) -> Arc.Tbl.replace st.known a c) table;
        Array.iter
          (fun w -> if w <> sender then Async.send ctx w (Forwarded table))
          (Async.neighbors ctx);
        Async.send ctx sender Ack
    | Forwarded _ -> ()
    | Ack ->
        st.pending_acks <- st.pending_acks - 1;
        if st.pending_acks = 0 then begin
          if Async.self ctx = coord then pass_or_finish ctx st
          else Async.send ctx coord Return
        end);
    st
  in
  let starts =
    [
      ( coordinator,
        fun ctx st ->
          st.is_coordinator <- true;
          st.queue <- targets;
          (* the coordinator visits itself first *)
          if Array.length (Async.neighbors ctx) = 0 then ()
          else start_visit ctx st;
          st );
    ]
  in
  let weight = function
    | Reply t | Announce t | Forwarded t -> Array.length t
    | Token | Return | Query | Ack -> 1
  in
  let _, stats =
    Async.run ~weight g ~init ~starts ~handler:(handler coordinator)
  in
  (sched, stats)

let join g sched ~node = refresh g sched ~coordinator:node ~targets:[]

let add_link g sched u v =
  if not (Graph.mem_edge g u v) then invalid_arg "Local_update.add_link: no such link";
  refresh g sched ~coordinator:u ~targets:[ v ]
