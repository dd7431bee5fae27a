open Fdlsp_graph

let greedy g =
  let n = Graph.n g in
  let colors = Array.make n (-1) in
  let scratch = Traversal.scratch g in
  for v = 0 to n - 1 do
    let forbidden = Hashtbl.create 8 in
    Traversal.iter_within ~scratch g v 2 (fun w ->
        if colors.(w) >= 0 then Hashtbl.replace forbidden colors.(w) ());
    let rec first c = if Hashtbl.mem forbidden c then first (c + 1) else c in
    colors.(v) <- first 0
  done;
  colors

let num_slots colors =
  let seen = Hashtbl.create 16 in
  Array.iter (fun c -> if c >= 0 then Hashtbl.replace seen c ()) colors;
  Hashtbl.length seen

let is_valid g colors =
  Array.length colors = Graph.n g
  && Array.for_all (fun c -> c >= 0) colors
  &&
  let ok = ref true in
  let scratch = Traversal.scratch g in
  for v = 0 to Graph.n g - 1 do
    Traversal.iter_within ~scratch g v 2 (fun w -> if colors.(w) = colors.(v) then ok := false)
  done;
  !ok

let frame_length g = num_slots (greedy g)

(* --- distributed variant ------------------------------------------- *)

open Fdlsp_sim

(* Three synchronous rounds: broadcast own slot, forward the merged
   1-hop table, winners first-fit against the gathered 2-hop slots. *)
let color_phase g colors ~chosen =
  let broadcast v payload =
    Graph.fold_neighbors g v (fun acc w -> (w, payload) :: acc) []
  in
  let init _v = ((Hashtbl.create 8, -1), true) in
  let merge known inbox =
    List.iter
      (fun (_, table) -> List.iter (fun (w, c) -> Hashtbl.replace known w c) table)
      inbox
  in
  let step ~round v ((known, _picked) as state) inbox =
    match round with
    | 1 ->
        let own = if colors.(v) >= 0 then [ (v, colors.(v)) ] else [] in
        List.iter (fun (w, c) -> Hashtbl.replace known w c) own;
        (state, Sync.Continue (broadcast v own))
    | 2 ->
        merge known inbox;
        let table = List.of_seq (Hashtbl.to_seq known) in
        (state, Sync.Continue (broadcast v table))
    | _ ->
        merge known inbox;
        if chosen.(v) then begin
          let forbidden = Hashtbl.create 8 in
          Hashtbl.iter (fun _ c -> Hashtbl.replace forbidden c ()) known;
          let rec first c = if Hashtbl.mem forbidden c then first (c + 1) else c in
          let c = first 0 in
          ((known, c), Sync.Halt (broadcast v [ (v, c) ]))
        end
        else (state, Sync.Halt [])
  in
  let states, stats = Sync.run ~weight:List.length g ~init ~step in
  Array.iteri (fun v (_, picked) -> if chosen.(v) && picked >= 0 then colors.(v) <- picked) states;
  stats

let distributed ~mis g =
  let n = Graph.n g in
  let colors = Array.make n (-1) in
  let stats = ref Stats.zero in
  let active = Array.make n true in
  let any arr = Array.exists Fun.id arr in
  while any active do
    let s, mis_stats = Mis.compute ~algo:mis g ~active in
    stats := Stats.add !stats mis_stats;
    let remaining = Array.copy s in
    while any remaining do
      let vg, back = Traversal.virtual_graph g remaining ~dist:2 in
      let s_virtual, sec_stats = Mis.compute ~algo:mis vg ~active:(Array.make (Graph.n vg) true) in
      stats := Stats.add !stats (Stats.scale_rounds 2 sec_stats);
      let chosen = Array.make n false in
      Array.iteri (fun i v -> if s_virtual.(i) then chosen.(v) <- true) back;
      stats := Stats.add !stats (color_phase g colors ~chosen);
      Array.iteri (fun v c -> if c then remaining.(v) <- false) chosen
    done;
    Array.iteri (fun v in_s -> if in_s then active.(v) <- false) s
  done;
  (colors, !stats)
