open Fdlsp_graph

let conflict g a b =
  a <> b
  &&
  let ta = Arc.tail g a and ha = Arc.head g a in
  let tb = Arc.tail g b and hb = Arc.head g b in
  ta = tb || ta = hb || ha = tb || ha = hb
  || Graph.mem_edge g ha tb || Graph.mem_edge g hb ta

(* Reusable dedup state for the conflict enumeration: [seen] holds one
   stamped cell per arc, so each enumeration starts from an O(1)
   clear.  [taken] is the same set over colors, for {!first_fit}; it
   starts empty and grows on demand. *)
type scratch = { seen : Stamp.t; mutable taken : Stamp.t }

let scratch g = { seen = Stamp.create (Arc.count g); taken = Stamp.create 0 }

let check fn s g =
  if Stamp.length s.seen <> Arc.count g then
    invalid_arg (fn ^ ": scratch built over a different graph")

(* Arcs conflicting with a = (u, v):
   - arcs incident on u or on v (shared endpoint, and the hidden-terminal
     pairs whose other arc touches u or v);
   - arcs whose tail is a neighbor of v (v = head of a would hear them);
   - arcs whose head is a neighbor of u (that head would hear u).
   Each candidate is at hop distance <= 2 of the edge, so we enumerate
   the 2-neighborhood and deduplicate with the stamped set — no per-call
   allocation beyond the closures below. *)
let iter_stamped s g a f =
  let seen = s.seen in
  Stamp.clear seen;
  (* marking [a] up front excludes it from the emission *)
  Stamp.mark seen a;
  let emit b =
    if not (Stamp.marked seen b) then begin
      Stamp.mark seen b;
      f b
    end
  in
  let u = Arc.tail g a and v = Arc.head g a in
  Arc.iter_incident g u emit;
  Arc.iter_incident g v emit;
  Graph.iter_neighbors g v (fun w -> Arc.iter_out g w emit);
  Graph.iter_neighbors g u (fun w -> Arc.iter_in g w emit)

let iter_conflicting ?scratch:sc g a f =
  let s =
    match sc with
    | Some s ->
        check "Conflict.iter_conflicting" s g;
        s
    | None -> scratch g
  in
  iter_stamped s g a f

(* First-fit never answers more than the number [k] of conflicting arcs
   (only [k] colors can be taken), so marking the colors below
   [Stamp.length taken] suffices once that length exceeds [k]; a call
   that finds it does not grows [taken] and enumerates again. *)
let rec first_fit_in s g a color_of =
  let taken = s.taken in
  Stamp.clear taken;
  let len = Stamp.length taken in
  let k = ref 0 in
  iter_stamped s g a (fun b ->
      incr k;
      let c = color_of b in
      if c >= 0 && c < len then Stamp.mark taken c);
  if !k >= len then begin
    s.taken <- Stamp.create (max 64 (2 * (!k + 1)));
    first_fit_in s g a color_of
  end
  else begin
    let c = ref 0 in
    while Stamp.marked taken !c do
      incr c
    done;
    !c
  end

let first_fit ~scratch g a color_of =
  check "Conflict.first_fit" scratch g;
  first_fit_in scratch g a color_of

let conflicting ?scratch g a =
  let out = ref [] in
  iter_conflicting ?scratch g a (fun b -> out := b :: !out);
  List.sort compare !out

let degree_bound g =
  let d = Graph.max_degree g in
  (2 * d * d) - 1

(* In-place ascending sort of nb.(lo .. hi-1): quicksort with a
   median-of-three pivot, insertion sort below 16 elements.  Plain int
   comparisons — no polymorphic compare, no spare array. *)
let rec sort_range nb lo hi =
  let len = hi - lo in
  if len <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = nb.(i) in
      let j = ref (i - 1) in
      while !j >= lo && nb.(!j) > x do
        nb.(!j + 1) <- nb.(!j);
        decr j
      done;
      nb.(!j + 1) <- x
    done
  else begin
    let p =
      let x = nb.(lo) and y = nb.(lo + (len / 2)) and z = nb.(hi - 1) in
      max (min x y) (min (max x y) z)
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while nb.(!i) < p do
        incr i
      done;
      while nb.(!j) > p do
        decr j
      done;
      if !i <= !j then begin
        let t = nb.(!i) in
        nb.(!i) <- nb.(!j);
        nb.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort_range nb lo (!j + 1);
    sort_range nb !i hi
  end

(* Counted two-pass CSR construction: pass 1 sizes every arc's
   strictly-upper conflict row, pass 2 fills and sorts the rows in
   place.  Rows grouped by ascending arc with each row ascending make
   the edge array canonical, lexicographically sorted and
   duplicate-free by construction, so it goes straight into the trusted
   Graph constructor — no tuple list, no validation, no re-sort. *)
let conflict_graph g =
  let narcs = Arc.count g in
  let s = scratch g in
  let off = Array.make (narcs + 1) 0 in
  for a = 0 to narcs - 1 do
    let c = ref 0 in
    iter_stamped s g a (fun b -> if b > a then incr c);
    off.(a + 1) <- !c
  done;
  for a = 0 to narcs - 1 do
    off.(a + 1) <- off.(a) + off.(a + 1)
  done;
  let m' = off.(narcs) in
  let nb = Array.make m' 0 in
  for a = 0 to narcs - 1 do
    let k = ref off.(a) in
    iter_stamped s g a (fun b ->
        if b > a then begin
          nb.(!k) <- b;
          incr k
        end);
    sort_range nb off.(a) off.(a + 1)
  done;
  let edges = Array.make m' (0, 0) in
  for a = 0 to narcs - 1 do
    for i = off.(a) to off.(a + 1) - 1 do
      edges.(i) <- (a, nb.(i))
    done
  done;
  Graph.of_sorted_edges_unchecked ~n:narcs edges
