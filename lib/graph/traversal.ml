let bfs_distances g src =
  let dist = Array.make (Graph.n g) max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors g v (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end)
  done;
  dist

let distance g u v =
  if u = v then 0
  else begin
    (* bounded BFS with early exit *)
    let dist = Array.make (Graph.n g) max_int in
    let q = Queue.create () in
    dist.(u) <- 0;
    Queue.add u q;
    let found = ref max_int in
    (try
       while not (Queue.is_empty q) do
         let x = Queue.pop q in
         Graph.iter_neighbors g x (fun w ->
             if dist.(w) = max_int then begin
               dist.(w) <- dist.(x) + 1;
               if w = v then begin
                 found := dist.(w);
                 raise Exit
               end;
               Queue.add w q
             end)
       done
     with Exit -> ());
    !found
  end

(* Bounded-BFS scratch: [seen] holds the nodes reached by the current
   search, with their hop counts in [hops]; [queue] holds each reached
   node once. *)
type scratch = { seen : Stamp.t; hops : int array; queue : int array }

let scratch g =
  let n = Graph.n g in
  { seen = Stamp.create n; hops = Array.make n 0; queue = Array.make n 0 }

let iter_within ~scratch:s g v r f =
  if Stamp.length s.seen <> Graph.n g then
    invalid_arg "Traversal.iter_within: scratch built over a different graph";
  let seen = s.seen and hops = s.hops and queue = s.queue in
  Stamp.clear seen;
  Stamp.mark seen v;
  hops.(v) <- 0;
  queue.(0) <- v;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    let d = hops.(x) in
    if d < r then
      Graph.iter_neighbors g x (fun w ->
          if not (Stamp.marked seen w) then begin
            Stamp.mark seen w;
            hops.(w) <- d + 1;
            queue.(!tail) <- w;
            incr tail;
            f w
          end)
  done

let within ~scratch g v r =
  let out = ref [] in
  iter_within ~scratch g v r (fun w -> out := w :: !out);
  List.sort Int.compare !out

(* Members are renumbered in increasing real id, so for a fixed [i] the
   partners [j > i] found by the search only need an int sort, and the
   rows come out in the lexicographic order the trusted constructor
   takes. *)
let virtual_graph g members ~dist =
  let n = Graph.n g in
  let index = Array.make n (-1) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if members.(v) then begin
      index.(v) <- !k;
      incr k
    end
  done;
  let back = Array.make !k 0 in
  for v = 0 to n - 1 do
    if index.(v) >= 0 then back.(index.(v)) <- v
  done;
  let scratch = scratch g in
  let edges = ref [] in
  for i = !k - 1 downto 0 do
    let row = ref [] in
    iter_within ~scratch g back.(i) dist (fun w ->
        let j = index.(w) in
        if j > i then row := j :: !row);
    (* prepending a descending row leaves it ascending at the front *)
    List.iter (fun j -> edges := (i, j) :: !edges) (List.sort (fun a b -> Int.compare b a) !row)
  done;
  (Graph.of_sorted_edges_unchecked ~n:!k (Array.of_list !edges), back)

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let q = Queue.create () in
      comp.(v) <- !k;
      Queue.add v q;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        Graph.iter_neighbors g x (fun w ->
            if comp.(w) < 0 then begin
              comp.(w) <- !k;
              Queue.add w q
            end)
      done;
      incr k
    end
  done;
  (comp, !k)

let is_connected g =
  Graph.n g = 0
  ||
  let _, k = components g in
  k = 1

let dfs_preorder g root ~next =
  let visited = Array.make (Graph.n g) false in
  let order = ref [] in
  let rec visit v =
    visited.(v) <- true;
    order := v :: !order;
    let rec loop () =
      let candidates = Graph.fold_neighbors g v (fun acc w -> if visited.(w) then acc else w :: acc) [] in
      let candidates = List.sort compare candidates in
      match candidates with
      | [] -> ()
      | _ -> (
          match next v candidates with
          | None -> ()
          | Some w ->
              if visited.(w) then invalid_arg "Traversal.dfs_preorder: next picked a visited node";
              visit w;
              loop ())
    in
    loop ()
  in
  visit root;
  List.rev !order

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left (fun acc d -> if d <> max_int then max acc d else acc) 0 dist

let diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let e = eccentricity g v in
    if e > !best then best := e
  done;
  !best
