open Fdlsp_graph

type stats = {
  fans : int;
  inversions : int;
  total_path_length : int;
  longest_path : int;
}

(* State: [col.(e)] is the color of edge [e] or -1; [at.(v).(c)] the edge
   of color [c] incident on [v], or -1.  Colors range over [0 .. delta],
   i.e. delta+1 colors, so every node always has a free color.  The fan
   being rotated is [fan_v.(0 .. len-1)] with [fan_e.(i)] the edge from
   its center to [fan_v.(i)]; [in_fan] marks its nodes. *)
type state = {
  g : Graph.t;
  col : int array;
  at : int array array;
  fan_v : int array;
  fan_e : int array;
  in_fan : Stamp.t;
  mutable st_fans : int;
  mutable st_inv : int;
  mutable st_len : int;
  mutable st_longest : int;
}

let other_endpoint s e v =
  let u, w = Graph.edge_endpoints s.g e in
  if v = u then w else u

let set_color s e c =
  let u, v = Graph.edge_endpoints s.g e in
  s.col.(e) <- c;
  s.at.(u).(c) <- e;
  s.at.(v).(c) <- e

let unset_color s e =
  let c = s.col.(e) in
  if c >= 0 then begin
    let u, v = Graph.edge_endpoints s.g e in
    s.col.(e) <- -1;
    s.at.(u).(c) <- -1;
    s.at.(v).(c) <- -1
  end

let is_free s v c = s.at.(v).(c) < 0

let free_color s v =
  let rec scan c = if is_free s v c then c else scan (c + 1) in
  scan 0

(* Maximal fan of [u] starting at [f0] (edge [e0]): nodes [f0; f1; ...]
   where edge (u, f_{i+1}) is colored with a color free at f_i, each
   step taking the first such neighbor in adjacency order.  Fills
   [fan_v]/[fan_e] and returns the fan's length. *)
let build_fan s u f0 e0 =
  s.st_fans <- s.st_fans + 1;
  Stamp.clear s.in_fan;
  Stamp.mark s.in_fan f0;
  s.fan_v.(0) <- f0;
  s.fan_e.(0) <- e0;
  let rec grow len =
    let last = s.fan_v.(len - 1) in
    let next_v = ref (-1) and next_e = ref (-1) in
    Graph.iter_incident_edges s.g u (fun e w ->
        if !next_e < 0 && (not (Stamp.marked s.in_fan w)) && s.col.(e) >= 0
           && is_free s last s.col.(e)
        then begin
          next_v := w;
          next_e := e
        end);
    if !next_e < 0 then len
    else begin
      Stamp.mark s.in_fan !next_v;
      s.fan_v.(len) <- !next_v;
      s.fan_e.(len) <- !next_e;
      grow (len + 1)
    end
  in
  grow 1

(* Invert the maximal path starting at [u] whose edges are alternately
   colored [d], [c], [d], ...  After inversion [d] is free at [u]. *)
let invert_cd_path s u c d =
  if c <> d then begin
    (* collect the path *)
    let limit = Graph.m s.g + 1 in
    let rec walk x expect acc steps =
      if steps > limit then failwith "Vizing: cd-path is not simple";
      let e = s.at.(x).(expect) in
      if e < 0 then List.rev acc
      else walk (other_endpoint s e x) (if expect = d then c else d) (e :: acc) (steps + 1)
    in
    let path = walk u d [] 0 in
    if path <> [] then begin
      s.st_inv <- s.st_inv + 1;
      let len = List.length path in
      s.st_len <- s.st_len + len;
      if len > s.st_longest then s.st_longest <- len;
      let flipped = List.map (fun e -> (e, if s.col.(e) = c then d else c)) path in
      List.iter (fun (e, _) -> unset_color s e) flipped;
      List.iter (fun (e, c') -> set_color s e c') flipped
    end
  end

(* The least [i < len] such that [d] is free at [f_i] and [f_0 .. f_i]
   is still a fan (the inversion may have recolored fan edges).  A
   prefix that is no fan has no longer fan prefix, so the scan stops at
   the first edge that breaks it. *)
let rotation_point s len d =
  let rec go i =
    if i >= len then None
    else if
      i > 0
      &&
      let c = s.col.(s.fan_e.(i)) in
      c < 0 || not (is_free s s.fan_v.(i - 1) c)
    then None
    else if is_free s s.fan_v.(i) d then Some i
    else go (i + 1)
  in
  go 0

let rotate_prefix s i d =
  let shifted = Array.init i (fun j -> s.col.(s.fan_e.(j + 1))) in
  for j = 1 to i do
    unset_color s s.fan_e.(j)
  done;
  (* (u, f0) may be uncolored already on the first call *)
  unset_color s s.fan_e.(0);
  for j = 0 to i - 1 do
    set_color s s.fan_e.(j) shifted.(j)
  done;
  set_color s s.fan_e.(i) d

let color_edge s e u v =
  let len = build_fan s u v e in
  let c = free_color s u in
  let d = free_color s s.fan_v.(len - 1) in
  invert_cd_path s u c d;
  match rotation_point s len d with
  | Some i -> rotate_prefix s i d
  | None -> (
      (* Theory (Misra & Gries 1992) guarantees a rotation point exists;
         d became free at u after the inversion, so as a last resort the
         longest still-valid prefix can take it.  Re-deriving the fan
         from scratch restores the invariant. *)
      let len' = build_fan s u v e in
      let d' = free_color s s.fan_v.(len' - 1) in
      invert_cd_path s u (free_color s u) d';
      match rotation_point s len' d' with
      | Some i -> rotate_prefix s i d'
      | None -> failwith "Vizing.color: no rotation point")

let color g =
  let delta = Graph.max_degree g in
  let s =
    {
      g;
      col = Array.make (Graph.m g) (-1);
      at = Array.init (Graph.n g) (fun _ -> Array.make (delta + 1) (-1));
      fan_v = Array.make (delta + 1) 0;
      fan_e = Array.make (delta + 1) 0;
      in_fan = Stamp.create (Graph.n g);
      st_fans = 0;
      st_inv = 0;
      st_len = 0;
      st_longest = 0;
    }
  in
  Graph.iter_edges g (fun e u v -> if s.col.(e) < 0 then color_edge s e u v);
  ( Array.copy s.col,
    {
      fans = s.st_fans;
      inversions = s.st_inv;
      total_path_length = s.st_len;
      longest_path = s.st_longest;
    } )

let is_proper g col =
  Array.length col = Graph.m g
  && Array.for_all (fun c -> c >= 0) col
  &&
  let seen = Stamp.create (1 + Array.fold_left max (-1) col) in
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    Stamp.clear seen;
    Graph.iter_incident_edges g v (fun e _ ->
        if Stamp.marked seen col.(e) then ok := false else Stamp.mark seen col.(e))
  done;
  !ok
