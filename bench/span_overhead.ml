(* The telemetry bargain: [Span.span Null name f] must cost nothing but
   the call and the match.  Measure it where it is hottest -- wrapping
   every per-arc conflict enumeration of a full conflict sweep -- and
   fail if the fractional slowdown, clamped at 0 (timer noise can make
   the wrapped sweep come out faster), exceeds [bound] on any family.

     dune exec bench/span_overhead.exe    # exit 1 if the null path grew work *)

open Fdlsp_graph
module Span = Fdlsp_sim.Span

let bound = 0.02
let reps = 50

(* UDG families of constant expected density (~4.7 average degree),
   growing in node count. *)
let families =
  List.map
    (fun n ->
      let side = 10. *. sqrt (float_of_int n /. 150.) in
      let g, _ = Gen.udg (Random.State.make [| 4321; n |]) ~n ~side ~radius:1. in
      (Printf.sprintf "udg%d" n, g))
    [ 150; 300; 600 ]

let overhead g =
  let scratch = Fdlsp_color.Conflict.scratch g in
  (* the thunk is hoisted and re-aimed through a ref, the idiom a
     hot loop instrumented per-iteration would use -- both sides
     then allocate identically and the delta is the span mechanism
     itself (one call, one match on Null) *)
  let acc = ref 0 in
  let cur = ref 0 in
  let visit _ = incr acc in
  let body () = Fdlsp_color.Conflict.iter_conflicting ~scratch g !cur visit in
  let sweep_bare () =
    acc := 0;
    Arc.iter g (fun a ->
        cur := a;
        body ());
    !acc
  in
  let sweep_spanned () =
    acc := 0;
    Arc.iter g (fun a ->
        cur := a;
        Span.span Span.null "arc" body);
    !acc
  in
  assert (sweep_bare () = sweep_spanned ());
  (* enough sweeps per timed sample to reach ~4 ms -- short enough
     to usually dodge a scheduler timeslice, long enough that 2% is
     not timer-jitter; the variants are sampled back-to-back in
     pairs and the reported overhead is the lower quartile of the
     per-pair ratios: contamination is two-sided per pair (a hiccup
     in the bare half deflates, in the spanned half inflates), while
     a real regression in the null path shifts EVERY pair up -- so a
     low quantile still trips the bound on a regression but cannot
     false-alarm from the fat positive noise tail that made min-of-k,
     interleaved min, and even the median flaky here *)
  let sample ~inner f =
    let t0 = Fdlsp_sim.Clock.now () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Fdlsp_sim.Clock.now () -. t0) *. 1e3
  in
  let once = Float.max 0.05 (sample ~inner:1 sweep_bare) in
  let inner = max 1 (min 16 (int_of_float (4.0 /. once))) in
  let sample f = sample ~inner f in
  let pairs =
    Array.init reps (fun _ ->
        let b = sample sweep_bare in
        let s = sample sweep_spanned in
        (b, s))
  in
  let ratios = Array.map (fun (b, s) -> (s -. b) /. Float.max b 1e-9) pairs in
  Array.sort compare ratios;
  let frac = Float.max 0. ratios.(reps / 4) in
  let bare = Array.fold_left (fun a (b, _) -> Float.min a b) infinity pairs in
  let spanned = Array.fold_left (fun a (_, s) -> Float.min a s) infinity pairs in
  (bare, spanned, frac)

let () =
  Report.section "Null-sink span overhead (per-arc conflict sweep)";
  let results = List.map (fun (family, g) -> (family, overhead g)) families in
  print_string
    (Report.table
       ~header:[ "family"; "bare ms"; "spanned ms"; "overhead" ]
       (List.map
          (fun (family, (bare, spanned, frac)) ->
            [
              family;
              Printf.sprintf "%.3f" bare;
              Printf.sprintf "%.3f" spanned;
              Printf.sprintf "%.2f%%" (frac *. 100.);
            ])
          results));
  if List.exists (fun (_, (_, _, frac)) -> frac > bound) results then begin
    Printf.printf "FAIL: null-sink span overhead above %.0f%%\n" (bound *. 100.);
    exit 1
  end
