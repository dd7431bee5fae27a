(* Always-on flight recorder: bundles a bounded span ring and a bounded
   queue of recent health samples, and dumps both atomically (tmp +
   rename, like snapshots) when something goes wrong.  The dump is sectioned JSONL so [fdlsp doctor] — and
   humans with grep — can reconstruct the last seconds before a crash
   without any other state. *)

type t = {
  spans : Span.sink;
  health_cap : int;
  health : string Queue.t;
}

let create ?(span_capacity = 8192) ?(health_capacity = 256) () =
  if health_capacity < 1 then invalid_arg "Flight.create: health_capacity must be >= 1";
  {
    spans = Span.recorder ~capacity:span_capacity ();
    health_cap = health_capacity;
    health = Queue.create ();
  }

let spans t = t.spans

let note_health t line =
  Queue.add line t.health;
  if Queue.length t.health > t.health_cap then ignore (Queue.pop t.health)

(* Same atomicity argument as Wal.Store.write_atomic: the dump is
   complete and fsync'd under a temporary name before the rename makes
   it visible, so a reader never observes a torn dump. *)
let write_atomic path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc text;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

let dump t ~reason path =
  let buf = Buffer.create 65536 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let span_entries = Span.entries t.spans in
  line
    (Printf.sprintf
       {|{"flight":"fdlsp","version":1,"reason":"%s","t":%.6f,"spans":%d,"spans_overwritten":%d,"health":%d,"open":[%s]}|}
       (Json.escape reason)
       (* dump labels are for humans: wall-clock, not the monotone clamp *)
       (Clock.wall ())
       (Array.length span_entries)
       (Span.overwritten t.spans)
       (Queue.length t.health)
       (String.concat ","
          (List.map (fun n -> "\"" ^ Json.escape n ^ "\"") (Span.open_spans t.spans))));
  line {|{"section":"spans"}|};
  Array.iter (fun e -> line (Span.entry_to_json e)) span_entries;
  line {|{"section":"health"}|};
  Queue.iter (fun h -> line h) t.health;
  line {|{"end":true}|};
  write_atomic path (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Loading dumps                                                       *)
(* ------------------------------------------------------------------ *)

type dump = {
  d_reason : string;
  d_time : float;
  d_spans : Span.entry array;
  d_spans_overwritten : int;
  d_health : string list;
  d_open : string list;
  d_complete : bool;
}

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | [] -> failwith "Flight.load: empty dump"
  | header :: rest ->
      let j =
        try Json.parse header
        with _ -> failwith "Flight.load: malformed header line"
      in
      (match Json.member "flight" j with
      | Some (Json.Str "fdlsp") -> ()
      | _ -> failwith "Flight.load: not a fdlsp flight-recorder dump");
      let str k d =
        match Json.member k j with Some (Json.Str s) -> s | _ -> d
      in
      let num k d =
        match Json.member k j with Some (Json.Num f) -> f | _ -> d
      in
      let d_open =
        match Json.member "open" j with
        | Some (Json.Arr xs) ->
            List.filter_map (function Json.Str s -> Some s | _ -> None) xs
        | _ -> []
      in
      let spans = ref [] and health = ref [] in
      let complete = ref false in
      let section = ref "" in
      (* a line that fails to parse can only be the torn tail of an
         interrupted write: keep everything before it and stop — the
         missing end marker reports the dump as incomplete.  Dumps from
         older writers carry a "trace" section, skipped line by line. *)
      let exception Torn in
      (try
         List.iter
           (fun l ->
             if l = {|{"section":"spans"}|} then section := "spans"
             else if l = {|{"section":"trace"}|} then section := "trace"
             else if l = {|{"section":"health"}|} then section := "health"
             else if l = {|{"end":true}|} then complete := true
             else
               match !section with
               | "spans" -> (
                   match Span.entry_of_json l with
                   | e -> spans := e :: !spans
                   | exception _ -> raise Torn)
               | "trace" -> ()
               | "health" -> health := l :: !health
               | _ -> failwith "Flight.load: content before first section")
           rest
       with Torn -> complete := false);
      {
        d_reason = str "reason" "unknown";
        d_time = num "t" 0.;
        d_spans = Array.of_list (List.rev !spans);
        d_spans_overwritten = int_of_float (num "spans_overwritten" 0.);
        d_health = List.rev !health;
        d_open = d_open;
        d_complete = !complete;
      }

(* ------------------------------------------------------------------ *)
(* Pretty-printing (fdlsp doctor)                                      *)
(* ------------------------------------------------------------------ *)

let take_last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let pp_story ppf d =
  let span_entries = d.d_spans in
  let n_spans = Array.length span_entries in
  let times = Array.map Span.entry_time span_entries in
  let t_end = Array.fold_left Float.max neg_infinity times in
  let window = if n_spans = 0 then 0. else t_end -. Array.fold_left Float.min infinity times in
  Fmt.pf ppf "flight-recorder dump@.";
  Fmt.pf ppf "  reason:     %s@." d.d_reason;
  Fmt.pf ppf "  captured:   %.6f (unix)@." d.d_time;
  Fmt.pf ppf "  complete:   %b@." d.d_complete;
  Fmt.pf ppf "  window:     %.3f s of spans (%d entries, %d overwritten)@." window
    n_spans d.d_spans_overwritten;
  Fmt.pf ppf "  health:     %d samples@." (List.length d.d_health);
  (match d.d_open with
  | [] -> ()
  | names ->
      Fmt.pf ppf "  open spans at capture (innermost first):@.";
      List.iter (fun n -> Fmt.pf ppf "    %s@." n) names);
  (match Span.check_nesting span_entries with
  | Ok () -> Fmt.pf ppf "  span nesting: ok@."
  | Error e -> Fmt.pf ppf "  span nesting: truncated/damaged (%s)@." e);
  if n_spans > 0 then begin
    Fmt.pf ppf "  last spans:@.";
    let tail = take_last 12 (Array.to_list span_entries) in
    List.iter
      (fun e ->
        match e with
        | Span.Begin b ->
            Fmt.pf ppf "    %8.3f ms  begin %s (id %d)@."
              ((b.t -. t_end) *. 1e3) b.name b.id
        | Span.End_ en ->
            Fmt.pf ppf "    %8.3f ms  end   %s (id %d, %d words, %d majors)@."
              ((en.t -. t_end) *. 1e3) en.name en.id en.alloc_words en.majors
        | Span.Mark m ->
            Fmt.pf ppf "    %8.3f ms  mark  %s%s@."
              ((m.t -. t_end) *. 1e3) m.name
              (match m.args with
              | [] -> ""
              | args ->
                  " ["
                  ^ String.concat ", "
                      (List.map (fun (k, v) -> k ^ "=" ^ v) args)
                  ^ "]"))
      tail
  end;
  (match take_last 5 d.d_health with
  | [] -> ()
  | samples ->
      Fmt.pf ppf "  last health samples:@.";
      List.iter (fun s -> Fmt.pf ppf "    %s@." s) samples)
