open Fdlsp_graph

let first_free ~scratch sched a = Conflict.first_fit ~scratch (Schedule.graph sched) a (Schedule.get sched)
let color_arc ~scratch sched a = Schedule.set sched a (first_free ~scratch sched a)

let extend ?scratch sched arcs =
  let scratch =
    match scratch with
    | Some s -> s
    | None -> Conflict.scratch (Schedule.graph sched)
  in
  List.iter
    (fun a -> if not (Schedule.is_colored sched a) then color_arc ~scratch sched a)
    arcs

type order = By_id | By_degree | Shuffled of Random.State.t

let arcs_in_order g = function
  | By_id -> List.init (Arc.count g) Fun.id
  | By_degree ->
      List.init (Arc.count g) Fun.id
      |> List.map (fun a ->
             let d = Graph.degree g (Arc.tail g a) + Graph.degree g (Arc.head g a) in
             (-d, a))
      |> List.sort compare |> List.map snd
  | Shuffled rng ->
      let arr = Array.init (Arc.count g) Fun.id in
      for i = Array.length arr - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      Array.to_list arr

let color ?(order = By_id) g =
  let sched = Schedule.make g in
  extend sched (arcs_in_order g order);
  sched
