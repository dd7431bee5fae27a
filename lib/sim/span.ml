(* Causal span profiler: hierarchical begin/end spans with parent ids,
   monotone timestamps and per-span GC/allocation deltas, recorded into
   a bounded ring through a cheap [sink] handle threaded as [?spans]
   through the engines, the algorithm phases, and the serve path.  With
   the null sink every call is exactly [f ()], mirroring [Trace.null]
   and [Metrics.null].

   The ring stores raw [Begin]/[End_]/[Mark] entries rather than
   completed-span records: stream order is emission order (so exports
   need no tie-breaking for zero-width spans), a crash dump naturally
   shows the spans that were still open when the world stopped, and the
   nesting checker can verify the LIFO discipline entry by entry. *)

type entry =
  | Begin of { id : int; parent : int; name : string; t : float }
  | End_ of { id : int; name : string; t : float; alloc_words : int; majors : int }
  | Mark of { t : float; name : string; args : (string * string) list }

let entry_time = function Begin b -> b.t | End_ e -> e.t | Mark m -> m.t

type frame = { f_id : int; f_name : string }

type recorder = {
  clock : unit -> float;
  cap : int;
  ring : entry array;
  mutable len : int;  (* filled slots, <= cap *)
  mutable head : int;  (* next write index *)
  mutable seen_n : int;
  mutable next_id : int;
  mutable stack : frame list;  (* open spans, innermost first *)
  mutable last_t : float;
}

type sink = Null | Rec of recorder

let null = Null
let dummy_entry = Mark { t = 0.; name = ""; args = [] }
let default_capacity = 65_536

let recorder ?(capacity = default_capacity) ?(clock = Clock.now) () =
  if capacity < 2 then invalid_arg "Span.recorder: capacity must be >= 2";
  Rec
    {
      clock;
      cap = capacity;
      ring = Array.make capacity dummy_entry;
      len = 0;
      head = 0;
      seen_n = 0;
      next_id = 0;
      stack = [];
      last_t = clock ();
    }

let enabled = function Null -> false | Rec _ -> true
let seen = function Null -> 0 | Rec r -> r.seen_n
let overwritten = function Null -> 0 | Rec r -> r.seen_n - r.len
let depth = function Null -> 0 | Rec r -> List.length r.stack
let open_spans = function Null -> [] | Rec r -> List.map (fun f -> f.f_name) r.stack

(* Timestamps are clamped monotone at emission, so stream order is
   always non-decreasing in time even if the wall clock steps back. *)
let now r =
  let t = r.clock () in
  let t = if t > r.last_t then t else r.last_t in
  r.last_t <- t;
  t

let push r e =
  r.ring.(r.head) <- e;
  r.head <- (r.head + 1) mod r.cap;
  if r.len < r.cap then r.len <- r.len + 1;
  r.seen_n <- r.seen_n + 1

let entries = function
  | Null -> [||]
  | Rec r ->
      let start = (r.head - r.len + r.cap) mod r.cap in
      Array.init r.len (fun i -> r.ring.((start + i) mod r.cap))

let mark ?(args = []) m name =
  match m with Null -> () | Rec r -> push r (Mark { t = now r; name; args })

(* Alloc accounting mirrors [Metrics.timed]: [Gc.minor_words ()] reads
   the live allocation pointer (quick_stat's copy only advances at minor
   collections — an OCaml 5 sharp edge), and the major contribution is
   major_words minus promoted_words so promoted minors are not counted
   twice.  The two heaps are clamped separately: runtimes disagree on
   whether [major_words] includes promoted words, and a negative major
   correction must not swallow the (always valid) minor count. *)
let major_unpromoted (st : Gc.stat) = st.Gc.major_words -. st.Gc.promoted_words

let span m name f =
  match m with
  | Null -> f ()
  | Rec r ->
      let id = r.next_id in
      r.next_id <- id + 1;
      let parent = match r.stack with [] -> -1 | fr :: _ -> fr.f_id in
      push r (Begin { id; parent; name; t = now r });
      let g0 = Gc.quick_stat () in
      let m0 = Gc.minor_words () in
      r.stack <- { f_id = id; f_name = name } :: r.stack;
      let finish () =
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        (* [Fun.protect] guarantees inner spans closed before us, so our
           frame is on top; drop anything above it defensively anyway *)
        let rec pop = function
          | fr :: rest when fr.f_id <> id -> pop rest
          | fr :: rest when fr.f_id = id -> rest
          | stack -> stack
        in
        r.stack <- pop r.stack;
        let alloc =
          int_of_float
            (Float.max 0. (m1 -. m0)
            +. Float.max 0. (major_unpromoted g1 -. major_unpromoted g0))
        in
        push r
          (End_
             {
               id;
               name;
               t = now r;
               alloc_words = alloc;
               majors = g1.Gc.major_collections - g0.Gc.major_collections;
             })
      in
      Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* Nesting checker                                                     *)
(* ------------------------------------------------------------------ *)

(* Machine-checks the causal discipline over a complete entry stream:
   every [End_] must close the innermost open [Begin] (same id, same
   name), ids must be fresh, timestamps non-decreasing, and children
   must begin no earlier than their parent.  [require_closed] also
   demands an empty stack at the end (profiles, not crash dumps). *)
let check_nesting ?(require_closed = false) es =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let module S = Set.Make (Int) in
  let rec go i stack ids last_t =
    if i >= Array.length es then
      match stack with
      | [] -> Ok ()
      | (id, name, _) :: _ ->
          if require_closed then err "span %d (%s) never ended" id name else Ok ()
    else
      let t = entry_time es.(i) in
      if t < last_t then err "entry %d: time %g before predecessor %g" i t last_t
      else
        match es.(i) with
        | Begin b ->
            if S.mem b.id ids then err "entry %d: duplicate span id %d" i b.id
            else
              let expected_parent =
                match stack with [] -> -1 | (pid, _, _) :: _ -> pid
              in
              if b.parent <> expected_parent then
                err "entry %d: span %d claims parent %d, open parent is %d" i b.id
                  b.parent expected_parent
              else go (i + 1) ((b.id, b.name, b.t) :: stack) (S.add b.id ids) t
        | End_ e -> (
            match stack with
            | [] -> err "entry %d: end of span %d with no open span" i e.id
            | (id, name, t0) :: rest ->
                if id <> e.id then
                  err "entry %d: end of span %d does not match open span %d" i e.id id
                else if name <> e.name then
                  err "entry %d: span %d ends as %S but began as %S" i e.id e.name name
                else if e.t < t0 then
                  err "entry %d: span %d ends at %g before its begin %g" i e.id e.t t0
                else go (i + 1) rest ids t)
        | Mark _ -> go (i + 1) stack ids t
  in
  go 0 [] S.empty neg_infinity

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

let base_time es = if Array.length es = 0 then 0. else entry_time es.(0)

(* microseconds since the first entry, the unit Chrome's [ts] expects *)
let usec ~t0 t = (t -. t0) *. 1e6

(* Chrome trace_event JSON (the object form, {"traceEvents":[...]}):
   loadable by chrome://tracing, Perfetto, and speedscope. *)
let to_chrome ?(pid = 1) es =
  let t0 = base_time es in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"traceEvents":[|};
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      (match e with
      | Begin b ->
          Buffer.add_string buf
            (Printf.sprintf
               {|{"name":"%s","ph":"B","ts":%.3f,"pid":%d,"tid":1,"args":{"id":%d,"parent":%d}}|}
               (Json.escape b.name) (usec ~t0 b.t) pid b.id b.parent)
      | End_ e ->
          Buffer.add_string buf
            (Printf.sprintf
               {|{"name":"%s","ph":"E","ts":%.3f,"pid":%d,"tid":1,"args":{"id":%d,"alloc_words":%d,"major_collections":%d}}|}
               (Json.escape e.name) (usec ~t0 e.t) pid e.id e.alloc_words e.majors)
      | Mark m ->
          let args =
            String.concat ","
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v))
                 m.args)
          in
          Buffer.add_string buf
            (Printf.sprintf
               {|{"name":"%s","ph":"i","ts":%.3f,"pid":%d,"tid":1,"s":"t","args":{%s}}|}
               (Json.escape m.name) (usec ~t0 m.t) pid args)))
    es;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Folded-stack (flamegraph.pl / inferno / speedscope) text: one
   "a;b;c <usec>" line per distinct stack, value = self time in integer
   microseconds (total minus children).  Ends whose begin was lost to
   ring wraparound are skipped; spans still open at the end of the
   stream contribute nothing (their extent is unknown). *)
let to_folded es =
  let totals : (string, float) Hashtbl.t = Hashtbl.create 64 in
  (* open frames, innermost first: (id, name, begin time, child time) *)
  let stack = ref [] in
  let path_of stack =
    String.concat ";" (List.rev_map (fun (_, name, _, _) -> name) stack)
  in
  Array.iter
    (fun e ->
      match e with
      | Begin b -> stack := (b.id, b.name, b.t, ref 0.) :: !stack
      | End_ e -> (
          match !stack with
          | (id, _, t0, child) :: rest when id = e.id ->
              let total = Float.max 0. (e.t -. t0) in
              let self = Float.max 0. (total -. !child) in
              let path = path_of !stack in
              Hashtbl.replace totals path
                (self +. Option.value (Hashtbl.find_opt totals path) ~default:0.);
              stack := rest;
              (match rest with
              | (_, _, _, pchild) :: _ -> pchild := !pchild +. total
              | [] -> ())
          | _ ->
              (* begin lost to wraparound, or interleaved damage: skip *)
              ())
      | Mark _ -> ())
    es;
  let lines =
    Hashtbl.fold
      (fun path self acc ->
        (path, int_of_float (Float.round (self *. 1e6))) :: acc)
      totals []
    |> List.sort compare
  in
  String.concat ""
    (List.map (fun (path, v) -> Printf.sprintf "%s %d\n" path v) lines)

(* ------------------------------------------------------------------ *)
(* JSONL entry codec (flight-recorder dumps)                           *)
(* ------------------------------------------------------------------ *)

let entry_to_json = function
  | Begin b ->
      Printf.sprintf {|{"sp":"b","id":%d,"parent":%d,"name":"%s","t":%.9f}|} b.id
        b.parent (Json.escape b.name) b.t
  | End_ e ->
      Printf.sprintf {|{"sp":"e","id":%d,"name":"%s","t":%.9f,"alloc":%d,"majors":%d}|}
        e.id (Json.escape e.name) e.t e.alloc_words e.majors
  | Mark m ->
      let args =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v))
             m.args)
      in
      Printf.sprintf {|{"sp":"m","name":"%s","t":%.9f,"args":{%s}}|} (Json.escape m.name)
        m.t args

let entry_of_json line =
  let fail fmt = Printf.ksprintf failwith fmt in
  let j = Json.parse line in
  let str k =
    match Json.member k j with
    | Some (Json.Str s) -> s
    | _ -> fail "Span.entry_of_json: missing string field %S" k
  in
  let num k =
    match Json.member k j with
    | Some (Json.Num f) -> f
    | _ -> fail "Span.entry_of_json: missing numeric field %S" k
  in
  let int k = int_of_float (num k) in
  match str "sp" with
  | "b" -> Begin { id = int "id"; parent = int "parent"; name = str "name"; t = num "t" }
  | "e" ->
      End_
        {
          id = int "id";
          name = str "name";
          t = num "t";
          alloc_words = int "alloc";
          majors = int "majors";
        }
  | "m" ->
      let args =
        match Json.member "args" j with
        | Some (Json.Obj kvs) ->
            List.map
              (function
                | k, Json.Str v -> (k, v)
                | k, _ -> fail "Span.entry_of_json: arg %S is not a string" k)
              kvs
        | _ -> []
      in
      Mark { t = num "t"; name = str "name"; args }
  | other -> fail "Span.entry_of_json: unknown entry kind %S" other
