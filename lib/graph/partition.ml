type t = { parts : int; part : int array }

let check_parts parts = if parts < 1 then invalid_arg "Partition: parts must be >= 1"

let geometric points ~parts =
  check_parts parts;
  let n = Array.length points in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare points.(a).Geometry.x points.(b).Geometry.x in
      if c <> 0 then c
      else
        let c = Float.compare points.(a).Geometry.y points.(b).Geometry.y in
        if c <> 0 then c else Int.compare a b)
    order;
  let part = Array.make n 0 in
  Array.iteri (fun rank v -> part.(v) <- rank * parts / n) order;
  { parts; part }

let bfs_regions g ~parts =
  check_parts parts;
  let n = Graph.n g in
  let quota = if n = 0 then 0 else (n + parts - 1) / parts in
  let part = Array.make n (-1) in
  let q = Queue.create () in
  let shard = ref 0 in
  let filled = ref 0 in
  let place v =
    part.(v) <- !shard;
    incr filled;
    if !filled = quota && !shard < parts - 1 then begin
      incr shard;
      filled := 0;
      Queue.clear q
    end
  in
  for seed = 0 to n - 1 do
    if part.(seed) < 0 then begin
      place seed;
      Queue.add seed q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        (* [place] may have advanced the shard and cleared the queue
           between pops; guard against a stale frontier entry *)
        if part.(v) >= 0 then
          Graph.iter_neighbors g v (fun w ->
              if part.(w) < 0 then begin
                place w;
                Queue.add w q
              end)
      done
    end
  done;
  { parts; part }

let of_graph ?points g ~parts =
  match points with
  | Some pts when Array.length pts = Graph.n g -> geometric pts ~parts
  | _ -> bfs_regions g ~parts

let shards p =
  let counts = Array.make p.parts 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) p.part;
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make p.parts 0 in
  Array.iteri
    (fun v s ->
      out.(s).(fill.(s)) <- v;
      fill.(s) <- fill.(s) + 1)
    p.part;
  out

let cut_fraction g p =
  let m = Graph.m g in
  if m = 0 then 0.
  else begin
    let cut = ref 0 in
    Graph.iter_edges g (fun _ u v -> if p.part.(u) <> p.part.(v) then incr cut);
    float_of_int !cut /. float_of_int m
  end
