open Fdlsp_graph

type event =
  | Round_start of int
  | Round_end of int
  | Send of { src : int; dst : int }
  | Recv of { src : int; dst : int }
  | Drop of { src : int; dst : int }
  | Duplicate of { src : int; dst : int }
  | Retransmit of { src : int; dst : int }
  | Give_up of { src : int; dst : int }
  | Crash of int
  | Recover of int
  | Phase of { label : string; scale : int }
  | Mis_join of int
  | Color of { node : int; arc : Arc.id; slot : int }
  | Corrupt_state of { node : int; arc : int; slot : int }
  | Detect of { node : int; arc : Arc.id }
  | Recolor of { node : int; arc : Arc.id; slot : int }
  | Beacon_loss of { node : int; frame : int }
  | Desync of { node : int; frame : int }
  | Resync of { node : int; frame : int }
  | Join of { node : int; parent : int }
  | Sleep of { node : int; slots : int }

type timed = { t : float; ev : event }

(* The crash/recover boundary sort shared by the engines: ascending
   time, [Crash] before [Recover] at equal times (preserving crash-
   window alternation), then node.  Explicit, because the generic
   structural compare it replaces was slow on the hot path and silently
   coupled to the constructor declaration order above — adding a
   constructor before [Crash] would have reordered every boundary
   list. *)
let compare_boundary (t1, e1) (t2, e2) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c
  else
    let rank = function Crash _ -> 0 | Recover _ -> 1 | _ -> 2 in
    let node = function Crash v | Recover v -> v | _ -> -1 in
    let c = Int.compare (rank e1) (rank e2) in
    if c <> 0 then c else Int.compare (node e1) (node e2)

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

type buffer = {
  capacity : int;
  mutable ring : timed array;  (* grows lazily up to [capacity] *)
  mutable count : int;  (* total events ever emitted *)
}

type sink = Null | Memory of buffer | Channel of { oc : out_channel; mutable n : int }

let null = Null

let memory ?(capacity = 1_048_576) () =
  if capacity <= 0 then invalid_arg "Trace.memory: capacity must be positive";
  Memory { capacity; ring = [||]; count = 0 }

let to_channel oc = Channel { oc; n = 0 }
let enabled = function Null -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* Times are round numbers or sums of link delays: %g keeps integers
   unadorned (1 not 1.000000) while preserving fractional delays. *)
let json_float t = Printf.sprintf "%g" t

let event_to_json { t; ev } =
  let time = json_float t in
  let link kind src dst =
    Printf.sprintf {|{"ev":"%s","t":%s,"src":%d,"dst":%d}|} kind time src dst
  in
  let node kind v = Printf.sprintf {|{"ev":"%s","t":%s,"node":%d}|} kind time v in
  match ev with
  | Round_start r -> Printf.sprintf {|{"ev":"round_start","t":%s,"round":%d}|} time r
  | Round_end r -> Printf.sprintf {|{"ev":"round_end","t":%s,"round":%d}|} time r
  | Send { src; dst } -> link "send" src dst
  | Recv { src; dst } -> link "recv" src dst
  | Drop { src; dst } -> link "drop" src dst
  | Duplicate { src; dst } -> link "duplicate" src dst
  | Retransmit { src; dst } -> link "retransmit" src dst
  | Give_up { src; dst } -> link "give_up" src dst
  | Crash v -> node "crash" v
  | Recover v -> node "recover" v
  | Phase { label; scale } ->
      Printf.sprintf {|{"ev":"phase","t":%s,"label":"%s","scale":%d}|} time
        (Json.escape label) scale
  | Mis_join v -> node "mis_join" v
  | Color { node; arc; slot } ->
      Printf.sprintf {|{"ev":"color","t":%s,"node":%d,"arc":%d,"slot":%d}|} time node arc
        slot
  | Corrupt_state { node; arc; slot } ->
      Printf.sprintf {|{"ev":"corrupt_state","t":%s,"node":%d,"arc":%d,"slot":%d}|} time
        node arc slot
  | Detect { node; arc } ->
      Printf.sprintf {|{"ev":"detect","t":%s,"node":%d,"arc":%d}|} time node arc
  | Recolor { node; arc; slot } ->
      Printf.sprintf {|{"ev":"recolor","t":%s,"node":%d,"arc":%d,"slot":%d}|} time node
        arc slot
  | Beacon_loss { node; frame } ->
      Printf.sprintf {|{"ev":"beacon_loss","t":%s,"node":%d,"frame":%d}|} time node frame
  | Desync { node; frame } ->
      Printf.sprintf {|{"ev":"desync","t":%s,"node":%d,"frame":%d}|} time node frame
  | Resync { node; frame } ->
      Printf.sprintf {|{"ev":"resync","t":%s,"node":%d,"frame":%d}|} time node frame
  | Join { node; parent } ->
      Printf.sprintf {|{"ev":"join","t":%s,"node":%d,"parent":%d}|} time node parent
  | Sleep { node; slots } ->
      Printf.sprintf {|{"ev":"sleep","t":%s,"node":%d,"slots":%d}|} time node slots

let emit sink ~t ev =
  match sink with
  | Null -> ()
  | Memory b ->
      if Array.length b.ring < b.capacity then begin
        (* still growing: append (amortized doubling) *)
        let len = Array.length b.ring in
        if b.count >= len then begin
          let cap = min b.capacity (max 64 (2 * len)) in
          let ring = Array.make cap { t; ev } in
          Array.blit b.ring 0 ring 0 len;
          b.ring <- ring
        end;
        b.ring.(b.count) <- { t; ev };
        b.count <- b.count + 1
      end
      else begin
        b.ring.(b.count mod b.capacity) <- { t; ev };
        b.count <- b.count + 1
      end
  | Channel c ->
      output_string c.oc (event_to_json { t; ev });
      output_char c.oc '\n';
      c.n <- c.n + 1

let seen = function Null -> 0 | Memory b -> b.count | Channel c -> c.n

let events = function
  | Null -> [||]
  | Memory b ->
      if b.count <= Array.length b.ring then Array.sub b.ring 0 b.count
      else begin
        (* ring wrapped: oldest surviving event is at count mod capacity *)
        let cap = b.capacity in
        let start = b.count mod cap in
        Array.init cap (fun i -> b.ring.((start + i) mod cap))
      end
  | Channel _ -> invalid_arg "Trace.events: channel sink does not buffer"

let overwritten = function
  | Null | Channel _ -> 0
  | Memory b -> max 0 (b.count - b.capacity)


let json_int name j =
  match Json.member name j with
  | Some (Json.Num f) when Float.is_integer f -> int_of_float f
  | _ -> failwith (Printf.sprintf "Trace: missing or non-integer field %S" name)

let json_str name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> failwith (Printf.sprintf "Trace: missing or non-string field %S" name)

let json_time j =
  match Json.member "t" j with
  | Some (Json.Num f) -> f
  | _ -> failwith "Trace: missing or non-numeric field \"t\""

let event_of_json line =
  let j = Json.parse line in
  let t = json_time j in
  let ev =
    match json_str "ev" j with
    | "round_start" -> Round_start (json_int "round" j)
    | "round_end" -> Round_end (json_int "round" j)
    | "send" -> Send { src = json_int "src" j; dst = json_int "dst" j }
    | "recv" -> Recv { src = json_int "src" j; dst = json_int "dst" j }
    | "drop" -> Drop { src = json_int "src" j; dst = json_int "dst" j }
    | "duplicate" -> Duplicate { src = json_int "src" j; dst = json_int "dst" j }
    | "retransmit" -> Retransmit { src = json_int "src" j; dst = json_int "dst" j }
    | "give_up" -> Give_up { src = json_int "src" j; dst = json_int "dst" j }
    | "crash" -> Crash (json_int "node" j)
    | "recover" -> Recover (json_int "node" j)
    | "phase" -> Phase { label = json_str "label" j; scale = json_int "scale" j }
    | "mis_join" -> Mis_join (json_int "node" j)
    | "color" ->
        Color { node = json_int "node" j; arc = json_int "arc" j; slot = json_int "slot" j }
    | "corrupt_state" ->
        Corrupt_state
          { node = json_int "node" j; arc = json_int "arc" j; slot = json_int "slot" j }
    | "detect" -> Detect { node = json_int "node" j; arc = json_int "arc" j }
    | "recolor" ->
        Recolor
          { node = json_int "node" j; arc = json_int "arc" j; slot = json_int "slot" j }
    | "beacon_loss" -> Beacon_loss { node = json_int "node" j; frame = json_int "frame" j }
    | "desync" -> Desync { node = json_int "node" j; frame = json_int "frame" j }
    | "resync" -> Resync { node = json_int "node" j; frame = json_int "frame" j }
    | "join" -> Join { node = json_int "node" j; parent = json_int "parent" j }
    | "sleep" -> Sleep { node = json_int "node" j; slots = json_int "slots" j }
    | kind -> failwith (Printf.sprintf "Trace: unknown event kind %S" kind)
  in
  { t; ev }

(* ------------------------------------------------------------------ *)
(* Trace files                                                        *)
(* ------------------------------------------------------------------ *)

type writer = { w_oc : out_channel; w_sink : sink; owns : bool }

let write_header oc meta =
  let meta_json =
    meta
    |> List.map (fun (k, v) ->
           Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v))
    |> String.concat ","
  in
  Printf.fprintf oc {|{"trace":"fdlsp","version":1,"meta":{%s}}|} meta_json;
  output_char oc '\n'

let writer_to_channel ?(meta = []) oc =
  write_header oc meta;
  { w_oc = oc; w_sink = to_channel oc; owns = false }

let open_writer ?(meta = []) path =
  let oc = open_out path in
  write_header oc meta;
  { w_oc = oc; w_sink = to_channel oc; owns = true }

let writer_sink w = w.w_sink

let close_writer ?stats w =
  (match stats with
  | None -> output_string w.w_oc {|{"end":true}|}
  | Some s -> Printf.fprintf w.w_oc {|{"end":true,"stats":%s}|} (Stats.to_json s));
  output_char w.w_oc '\n';
  if w.owns then close_out w.w_oc else flush w.w_oc

type file = {
  meta : (string * string) list;
  events : timed array;
  stats : Stats.t option;
}

let stats_of_json j =
  (* [corruptions] and [gave_up] postdate the oldest version-1 traces:
     default 0 so older trace files still load *)
  let opt_int name =
    match Json.member name j with
    | Some (Json.Num f) when Float.is_integer f -> int_of_float f
    | Some _ -> failwith (Printf.sprintf "Trace: non-integer field %S" name)
    | None -> 0
  in
  Stats.make ~rounds:(json_int "rounds" j) ~messages:(json_int "messages" j)
    ~volume:(json_int "volume" j) ~dropped:(json_int "dropped" j)
    ~duplicated:(json_int "duplicated" j) ~retransmits:(json_int "retransmits" j)
    ~gave_up:(opt_int "gave_up") ~corruptions:(opt_int "corruptions") ()

let load path =
  let ic = try open_in path with Sys_error m -> failwith m in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      let fail msg = failwith (Printf.sprintf "%s:%d: %s" path !lineno msg) in
      let next () =
        match input_line ic with
        | line ->
            incr lineno;
            Some line
        | exception End_of_file -> None
      in
      let meta =
        match next () with
        | None -> fail "empty trace file"
        | Some line -> (
            let j = try Json.parse line with Failure m -> fail m in
            match (Json.member "trace" j, Json.member "meta" j) with
            | Some (Json.Str "fdlsp"), Some (Json.Obj fields) ->
                List.map
                  (fun (k, v) ->
                    match v with
                    | Json.Str s -> (k, s)
                    | _ -> fail (Printf.sprintf "non-string meta value for %S" k))
                  fields
            | Some (Json.Str "fdlsp"), None -> []
            | _ -> fail "missing fdlsp trace header")
      in
      let events = ref [] in
      let stats = ref None in
      let finished = ref false in
      let rec loop () =
        match next () with
        | None -> if not !finished then fail "missing end-of-trace trailer"
        | Some "" -> loop ()
        | Some line ->
            if !finished then fail "content after end-of-trace trailer"
            else begin
              let j = try Json.parse line with Failure m -> fail m in
              (match Json.member "end" j with
              | Some (Json.Bool true) ->
                  finished := true;
                  (match Json.member "stats" j with
                  | Some sj -> (
                      match stats_of_json sj with
                      | s -> stats := Some s
                      | exception Failure m -> fail m)
                  | None -> ())
              | _ -> (
                  match event_of_json line with
                  | ev -> events := ev :: !events
                  | exception Failure m -> fail m));
              loop ()
            end
      in
      loop ();
      { meta; events = Array.of_list (List.rev !events); stats = !stats })

let save ?(meta = []) ?stats path events =
  let w = open_writer ~meta path in
  Array.iter
    (fun { t; ev } ->
      output_string w.w_oc (event_to_json { t; ev });
      output_char w.w_oc '\n')
    events;
  close_writer ?stats w

(* ------------------------------------------------------------------ *)
(* Summaries                                                          *)
(* ------------------------------------------------------------------ *)

module Summary = struct
  type phase = {
    label : string;
    scale : int;
    rounds : int;
    sends : int;
    recvs : int;
    drops : int;
    duplicates : int;
    retransmits : int;
    gave_ups : int;
    crashes : int;
    recoveries : int;
    mis_joins : int;
    colors : int;
    corruptions : int;
    detects : int;
    recolors : int;
    beacon_losses : int;
    desyncs : int;
    resyncs : int;
    joins : int;
    sleeps : int;
  }

  type t = { phases : phase list; events : int }

  type acc = {
    a_label : string;
    a_scale : int;
    mutable a_round_starts : int;
    mutable a_last_recv : float;
    mutable a_sends : int;
    mutable a_recvs : int;
    mutable a_drops : int;
    mutable a_duplicates : int;
    mutable a_retransmits : int;
    mutable a_gave_ups : int;
    mutable a_crashes : int;
    mutable a_recoveries : int;
    mutable a_mis_joins : int;
    mutable a_colors : int;
    mutable a_corruptions : int;
    mutable a_detects : int;
    mutable a_recolors : int;
    mutable a_beacon_losses : int;
    mutable a_desyncs : int;
    mutable a_resyncs : int;
    mutable a_joins : int;
    mutable a_sleeps : int;
    mutable a_touched : bool;
  }

  let fresh label scale =
    {
      a_label = label;
      a_scale = scale;
      a_round_starts = 0;
      a_last_recv = 0.;
      a_sends = 0;
      a_recvs = 0;
      a_drops = 0;
      a_duplicates = 0;
      a_retransmits = 0;
      a_gave_ups = 0;
      a_crashes = 0;
      a_recoveries = 0;
      a_mis_joins = 0;
      a_colors = 0;
      a_corruptions = 0;
      a_detects = 0;
      a_recolors = 0;
      a_beacon_losses = 0;
      a_desyncs = 0;
      a_resyncs = 0;
      a_joins = 0;
      a_sleeps = 0;
      a_touched = false;
    }

  let close a =
    (* synchronous segments carry Round_start markers; an async segment's
       round count is the ceiling of its last user-level delivery time,
       matching Async.run's own rounds statistic *)
    let rounds =
      if a.a_round_starts > 0 then a.a_round_starts
      else int_of_float (Float.ceil a.a_last_recv)
    in
    {
      label = a.a_label;
      scale = a.a_scale;
      rounds;
      sends = a.a_sends;
      recvs = a.a_recvs;
      drops = a.a_drops;
      duplicates = a.a_duplicates;
      retransmits = a.a_retransmits;
      gave_ups = a.a_gave_ups;
      crashes = a.a_crashes;
      recoveries = a.a_recoveries;
      mis_joins = a.a_mis_joins;
      colors = a.a_colors;
      corruptions = a.a_corruptions;
      detects = a.a_detects;
      recolors = a.a_recolors;
      beacon_losses = a.a_beacon_losses;
      desyncs = a.a_desyncs;
      resyncs = a.a_resyncs;
      joins = a.a_joins;
      sleeps = a.a_sleeps;
    }

  let of_events evs =
    let phases = ref [] in
    let cur = ref (fresh "run" 1) in
    let flush () = if !cur.a_touched then phases := close !cur :: !phases in
    Array.iter
      (fun { t; ev } ->
        let a = !cur in
        match ev with
        | Phase { label; scale } ->
            flush ();
            cur := fresh label scale;
            !cur.a_touched <- true
        | Round_start _ ->
            a.a_round_starts <- a.a_round_starts + 1;
            a.a_touched <- true
        | Round_end _ -> a.a_touched <- true
        | Send _ ->
            a.a_sends <- a.a_sends + 1;
            a.a_touched <- true
        | Recv _ ->
            a.a_recvs <- a.a_recvs + 1;
            a.a_last_recv <- Float.max a.a_last_recv t;
            a.a_touched <- true
        | Drop _ ->
            a.a_drops <- a.a_drops + 1;
            a.a_touched <- true
        | Duplicate _ ->
            a.a_duplicates <- a.a_duplicates + 1;
            a.a_touched <- true
        | Retransmit _ ->
            a.a_retransmits <- a.a_retransmits + 1;
            a.a_touched <- true
        | Give_up _ ->
            a.a_gave_ups <- a.a_gave_ups + 1;
            a.a_touched <- true
        | Crash _ ->
            a.a_crashes <- a.a_crashes + 1;
            a.a_touched <- true
        | Recover _ ->
            a.a_recoveries <- a.a_recoveries + 1;
            a.a_touched <- true
        | Mis_join _ ->
            a.a_mis_joins <- a.a_mis_joins + 1;
            a.a_touched <- true
        | Color _ ->
            a.a_colors <- a.a_colors + 1;
            a.a_touched <- true
        | Corrupt_state _ ->
            a.a_corruptions <- a.a_corruptions + 1;
            a.a_touched <- true
        | Detect _ ->
            a.a_detects <- a.a_detects + 1;
            a.a_touched <- true
        | Recolor _ ->
            a.a_recolors <- a.a_recolors + 1;
            a.a_touched <- true
        | Beacon_loss _ ->
            a.a_beacon_losses <- a.a_beacon_losses + 1;
            a.a_touched <- true
        | Desync _ ->
            a.a_desyncs <- a.a_desyncs + 1;
            a.a_touched <- true
        | Resync _ ->
            a.a_resyncs <- a.a_resyncs + 1;
            a.a_touched <- true
        | Join _ ->
            a.a_joins <- a.a_joins + 1;
            a.a_touched <- true
        | Sleep _ ->
            a.a_sleeps <- a.a_sleeps + 1;
            a.a_touched <- true)
      evs;
    flush ();
    { phases = List.rev !phases; events = Array.length evs }

  let totals { phases; _ } =
    List.fold_left
      (fun acc p ->
        let k = p.scale in
        {
          acc with
          rounds = acc.rounds + (k * p.rounds);
          sends = acc.sends + (k * p.sends);
          recvs = acc.recvs + (k * p.recvs);
          drops = acc.drops + (k * p.drops);
          duplicates = acc.duplicates + (k * p.duplicates);
          retransmits = acc.retransmits + (k * p.retransmits);
          gave_ups = acc.gave_ups + (k * p.gave_ups);
          crashes = acc.crashes + p.crashes;
          recoveries = acc.recoveries + p.recoveries;
          mis_joins = acc.mis_joins + p.mis_joins;
          colors = acc.colors + p.colors;
          corruptions = acc.corruptions + p.corruptions;
          detects = acc.detects + p.detects;
          recolors = acc.recolors + p.recolors;
          beacon_losses = acc.beacon_losses + p.beacon_losses;
          desyncs = acc.desyncs + p.desyncs;
          resyncs = acc.resyncs + p.resyncs;
          joins = acc.joins + p.joins;
          sleeps = acc.sleeps + p.sleeps;
        })
      (close (fresh "total" 1))
      phases

  let pp_phase ppf p =
    Format.fprintf ppf
      "phase=%s scale=%d rounds=%d sends=%d recvs=%d drops=%d duplicates=%d \
       retransmits=%d gave_up=%d crashes=%d mis_joins=%d colors=%d corruptions=%d \
       recolors=%d"
      p.label p.scale p.rounds p.sends p.recvs p.drops p.duplicates p.retransmits
      p.gave_ups p.crashes p.mis_joins p.colors p.corruptions p.recolors;
    if p.desyncs > 0 || p.resyncs > 0 || p.joins > 0 || p.beacon_losses > 0 then
      Format.fprintf ppf " beacon_losses=%d desyncs=%d resyncs=%d joins=%d"
        p.beacon_losses p.desyncs p.resyncs p.joins

  let pp ppf s =
    List.iter (fun p -> Format.fprintf ppf "%a@." pp_phase p) s.phases;
    Format.fprintf ppf "%a events=%d@." pp_phase (totals s) s.events

  let phase_to_json p =
    Printf.sprintf
      {|{"label":"%s","scale":%d,"rounds":%d,"sends":%d,"recvs":%d,"drops":%d,"duplicates":%d,"retransmits":%d,"gave_up":%d,"crashes":%d,"recoveries":%d,"mis_joins":%d,"colors":%d,"corruptions":%d,"detects":%d,"recolors":%d,"beacon_losses":%d,"desyncs":%d,"resyncs":%d,"joins":%d,"sleeps":%d}|}
      (Json.escape p.label) p.scale p.rounds p.sends p.recvs p.drops p.duplicates
      p.retransmits p.gave_ups p.crashes p.recoveries p.mis_joins p.colors p.corruptions
      p.detects p.recolors p.beacon_losses p.desyncs p.resyncs p.joins p.sleeps

  let to_json s =
    Printf.sprintf {|{"events":%d,"phases":[%s],"totals":%s}|} s.events
      (String.concat "," (List.map phase_to_json s.phases))
      (phase_to_json (totals s))
end

(* ------------------------------------------------------------------ *)
(* Replay verification                                                *)
(* ------------------------------------------------------------------ *)

module Replay = struct
  type report = {
    events : int;
    colors : int;
    mis_joins : int;
    retransmit_events : int;
    crash_events : int;
    schedule : Fdlsp_color.Schedule.t;
  }

  exception Reject of string

  let rejectf fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

  (* Decision check: rebuild the schedule color by color, insisting each
     assignment is made by an endpoint of the arc, never re-colors, and
     never conflicts with an earlier decision. *)
  let check_decisions g evs =
    let module S = Fdlsp_color.Schedule in
    let narcs = Arc.count g in
    let sched = S.make g in
    let scratch = Fdlsp_color.Conflict.scratch g in
    let colors = ref 0 in
    Array.iteri
      (fun i { ev; _ } ->
        match ev with
        | Color { node; arc; slot } ->
            incr colors;
            if arc < 0 || arc >= narcs then
              rejectf "event %d: arc %d out of range (graph has %d arcs)" i arc narcs;
            if node <> Arc.tail g arc && node <> Arc.head g arc then
              rejectf "event %d: node %d colored non-incident arc %d (%d->%d)" i node arc
                (Arc.tail g arc) (Arc.head g arc);
            if slot < 0 then rejectf "event %d: negative slot %d" i slot;
            if S.is_colored sched arc then
              rejectf "event %d: arc %d colored twice (had %d, now %d)" i arc
                (S.get sched arc) slot;
            Fdlsp_color.Conflict.iter_conflicting ~scratch g arc (fun b ->
                if S.get sched b = slot then
                  rejectf
                    "event %d: arc %d slot %d conflicts with earlier decision on arc %d" i
                    arc slot b);
            S.set sched arc slot
        | _ -> ())
      evs;
    (sched, !colors)

  let check_accounting (stats : Stats.t) summary =
    let t = Summary.totals summary in
    let mismatch name traced recorded =
      rejectf "accounting: %s from trace = %d but stats say %d" name traced recorded
    in
    if t.Summary.rounds <> stats.Stats.rounds then
      mismatch "rounds" t.Summary.rounds stats.Stats.rounds;
    if t.Summary.sends <> stats.Stats.messages then
      mismatch "messages" t.Summary.sends stats.Stats.messages;
    if t.Summary.drops <> stats.Stats.dropped then
      mismatch "dropped" t.Summary.drops stats.Stats.dropped;
    if t.Summary.duplicates <> stats.Stats.duplicated then
      mismatch "duplicated" t.Summary.duplicates stats.Stats.duplicated;
    if t.Summary.retransmits <> stats.Stats.retransmits then
      mismatch "retransmits" t.Summary.retransmits stats.Stats.retransmits;
    if t.Summary.gave_ups <> stats.Stats.gave_up then
      mismatch "gave_up" t.Summary.gave_ups stats.Stats.gave_up

  (* Registry cross-check: the metrics sink the run recorded through must
     agree with the trace-derived totals on every channel counter.  Null
     sinks pass vacuously; the sink's own labels scope the read so
     several runs can share one registry. *)
  let check_metrics (m : Metrics.sink) summary =
    match Metrics.registry m with
    | None -> ()
    | Some reg ->
        let t = Summary.totals summary in
        let s = Metrics.to_stats ~labels:(Metrics.sink_labels m) reg in
        let mismatch name traced recorded =
          rejectf "metrics: %s from trace = %d but registry says %d" name traced recorded
        in
        if t.Summary.rounds <> s.Stats.rounds then
          mismatch "rounds" t.Summary.rounds s.Stats.rounds;
        if t.Summary.sends <> s.Stats.messages then
          mismatch "messages" t.Summary.sends s.Stats.messages;
        if t.Summary.drops <> s.Stats.dropped then
          mismatch "dropped" t.Summary.drops s.Stats.dropped;
        if t.Summary.duplicates <> s.Stats.duplicated then
          mismatch "duplicated" t.Summary.duplicates s.Stats.duplicated;
        if t.Summary.retransmits <> s.Stats.retransmits then
          mismatch "retransmits" t.Summary.retransmits s.Stats.retransmits;
        if t.Summary.gave_ups <> s.Stats.gave_up then
          mismatch "gave_up" t.Summary.gave_ups s.Stats.gave_up

  let check_crashes plan evs =
    let crash_list = Fault.crashes plan in
    let s = Fault.start plan in
    let is_boundary_at v t =
      List.exists (fun c -> c.Fault.node = v && c.Fault.at = t) crash_list
    in
    let is_boundary_until v t =
      List.exists (fun c -> c.Fault.node = v && c.Fault.until = Some t) crash_list
    in
    (* per-node "currently down" flag; Phase markers reset engine clocks,
       so alternation is tracked within a segment *)
    let down = Hashtbl.create 8 in
    Array.iteri
      (fun i { t; ev } ->
        match ev with
        | Phase _ -> Hashtbl.reset down
        | Crash v ->
            if not (is_boundary_at v t) then
              rejectf "event %d: node %d crash at t=%g matches no plan window" i v t;
            if Hashtbl.mem down v then
              rejectf "event %d: node %d crashed twice without recovering" i v;
            Hashtbl.replace down v ()
        | Recover v ->
            if not (is_boundary_until v t) then
              rejectf "event %d: node %d recovery at t=%g matches no plan window" i v t;
            if not (Hashtbl.mem down v) then
              rejectf "event %d: node %d recovered without a preceding crash" i v;
            Hashtbl.remove down v
        | Send { src; dst } ->
            if Fault.crashed s src t then
              rejectf "event %d: crashed node %d sent to %d at t=%g" i src dst t
        | Recv { src; dst } ->
            if Fault.crashed s dst t then
              rejectf "event %d: crashed node %d received from %d at t=%g" i dst src t
        | _ -> ())
      evs

  let check ?plan ?stats ?metrics ?(require_complete = false) g evs =
    let module S = Fdlsp_color.Schedule in
    try
      let sched, colors = check_decisions g evs in
      (if require_complete then
         match S.validate sched with
         | Ok () -> ()
         | Error v ->
             rejectf "final schedule invalid: %s"
               (Format.asprintf "%a" (S.pp_violation g) v)
       else if not (S.valid_partial sched) then
         rejectf "rebuilt partial schedule has a conflict");
      let summary = Summary.of_events evs in
      Option.iter (fun s -> check_accounting s summary) stats;
      Option.iter (fun m -> check_metrics m summary) metrics;
      Option.iter (fun p -> check_crashes p evs) plan;
      let totals = Summary.totals summary in
      Ok
        {
          events = Array.length evs;
          colors;
          mis_joins = totals.Summary.mis_joins;
          retransmit_events = totals.Summary.retransmits;
          crash_events = totals.Summary.crashes;
          schedule = sched;
        }
    with Reject msg -> Error msg

  type stabilize_report = {
    s_events : int;
    s_corruptions : int;
    s_detects : int;
    s_recolorings : int;
    s_recolored_arcs : int;
    s_converged : bool;
    s_rounds_to_stabilize : int;
    s_schedule : Fdlsp_color.Schedule.t;
  }

  (* Stabilization replay: unlike [check_decisions], re-coloring is the
     whole point here.  The ground-truth schedule is rebuilt from the
     initial [Color] events, mutated by every [Corrupt_state] flip and
     [Recolor], and must end valid.  Decisions are checked for locality
     (only an arc's owner — its tail — may corrupt-report, detect or
     recolor it), and with [?plan] every corruption event must match a
     planned blip, mirroring [check_crashes].  The stabilization lag is
     derived from timestamps alone (no [Round_end] dependency), so
     asynchronous traces verify with the same code path. *)
  let check_stabilize ?plan ?metrics ?(require_converged = true) g evs =
    let module S = Fdlsp_color.Schedule in
    let narcs = Arc.count g in
    try
      let colors = Array.make narcs (-1) in
      let corruptions = ref 0 and detects = ref 0 and recolors = ref 0 in
      let recolored = Array.make narcs false in
      let last_corrupt = ref Float.neg_infinity in
      let last_change = ref Float.neg_infinity in
      let check_arc i arc =
        if arc < 0 || arc >= narcs then
          rejectf "event %d: arc %d out of range (graph has %d arcs)" i arc narcs
      in
      let check_owner i node arc what =
        if node <> Arc.tail g arc then
          rejectf "event %d: node %d %s arc %d it does not own (tail is %d)" i node what
            arc (Arc.tail g arc)
      in
      Array.iteri
        (fun i { t; ev } ->
          match ev with
          | Color { node; arc; slot } ->
              (* the initial (possibly already-corrupt) coloring *)
              check_arc i arc;
              if node <> Arc.tail g arc && node <> Arc.head g arc then
                rejectf "event %d: node %d colored non-incident arc %d" i node arc;
              colors.(arc) <- slot
          | Corrupt_state { node; arc; slot } ->
              incr corruptions;
              last_corrupt := Float.max !last_corrupt t;
              (match plan with
              | Some p
                when not
                       (List.exists
                          (fun b -> b.Fault.b_node = node && b.Fault.b_at = t)
                          (Fault.blips p)) ->
                  rejectf "event %d: corruption of node %d at t=%g matches no plan blip" i
                    node t
              | _ -> ());
              (* arc < 0 encodes a view scramble: the victim's cached view
                 of other owners' colors changed, not the schedule itself *)
              if arc >= 0 then begin
                check_arc i arc;
                check_owner i node arc "corrupted";
                colors.(arc) <- slot;
                last_change := Float.max !last_change t
              end
          | Detect { node; arc } ->
              incr detects;
              check_arc i arc;
              check_owner i node arc "flagged"
          | Recolor { node; arc; slot } ->
              incr recolors;
              check_arc i arc;
              check_owner i node arc "recolored";
              if slot < 0 then rejectf "event %d: recolored arc %d to negative slot" i arc;
              colors.(arc) <- slot;
              recolored.(arc) <- true;
              last_change := Float.max !last_change t
          | _ -> ())
        evs;
      let sched = S.of_colors g colors in
      let converged = S.valid sched in
      if require_converged && not converged then begin
        match S.validate sched with
        | Error v ->
            rejectf "network did not restabilize: %s"
              (Format.asprintf "%a" (S.pp_violation g) v)
        | Ok () -> ()
      end;
      (* lag from the last corruption to the last repair that touched the
         schedule, inclusive: a flip fixed within its own round counts 1 *)
      let rounds_to_stabilize =
        if !corruptions = 0 || !last_change < !last_corrupt then 0
        else
          int_of_float (Float.ceil !last_change)
          - int_of_float (Float.ceil !last_corrupt)
          + 1
      in
      let distinct = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 recolored in
      (* repair counters must agree with the registry snapshot; blip
         counts are excluded because a Flip_slot on a node without
         out-arcs is applied (and counted) without a trace event *)
      (match Option.map (fun m -> (m, Metrics.registry m)) metrics with
      | Some (m, Some reg) ->
          let labels = Metrics.sink_labels m in
          let mismatch name traced recorded =
            rejectf "metrics: %s from trace = %d but registry says %d" name traced
              recorded
          in
          let v name = Metrics.counter_value ~labels reg name in
          if !detects <> v Metrics.Name.detects then
            mismatch "detects" !detects (v Metrics.Name.detects);
          if !recolors <> v Metrics.Name.recolorings then
            mismatch "recolorings" !recolors (v Metrics.Name.recolorings)
      | _ -> ());
      Ok
        {
          s_events = Array.length evs;
          s_corruptions = !corruptions;
          s_detects = !detects;
          s_recolorings = !recolors;
          s_recolored_arcs = distinct;
          s_converged = converged;
          s_rounds_to_stabilize = rounds_to_stabilize;
          s_schedule = sched;
        }
    with Reject msg -> Error msg

  type frames_report = {
    f_events : int;
    f_beacon_losses : int;
    f_desyncs : int;
    f_resyncs : int;
    f_joins : int;
    f_sleeps : int;
    f_max_lag : float;
    f_synced_end : bool;
  }

  (* Frame-protocol replay: verified from the trace alone so traces from
     any engine (or another implementation of the protocol) check with
     the same code path.  Per node, [Desync] / [Resync] must alternate,
     a desync must be preceded by at least [resync_threshold]
     consecutive beacon losses since the node last held sync, every
     resync must be accompanied by a [Join] handshake at the same
     timestamp, and — the convergence bound — no desync may stay
     unrepaired longer than [resync_threshold] frames of [frame_time]
     time units each. *)
  let check_frames ?resync_threshold ?frame_time ?frame_length
      ?(require_synced = true) evs =
    try
      let beacon_losses = ref 0
      and desyncs = ref 0
      and resyncs = ref 0
      and joins = ref 0
      and sleeps = ref 0 in
      let max_lag = ref 0. in
      (* per node: sync state unknown until the first event mentions it *)
      let desynced_at = Hashtbl.create 16 (* node -> t of open desync *)
      and synced = Hashtbl.create 16 (* node -> bool *)
      and losses_since_sync = Hashtbl.create 16
      and last_join = Hashtbl.create 16 (* node -> t of last Join *) in
      let window =
        match (resync_threshold, frame_time) with
        | Some k, Some ft -> Some (float_of_int k *. ft)
        | _ -> None
      in
      Array.iteri
        (fun i { t; ev } ->
          match ev with
          | Beacon_loss { node; frame = _ } ->
              incr beacon_losses;
              if Hashtbl.find_opt synced node = Some false then
                rejectf "event %d: desynced node %d reported a beacon loss" i node;
              Hashtbl.replace losses_since_sync node
                (1 + Option.value ~default:0 (Hashtbl.find_opt losses_since_sync node))
          | Desync { node; frame } ->
              incr desyncs;
              if Hashtbl.find_opt synced node = Some false then
                rejectf "event %d: node %d desynced twice (frame %d)" i node frame;
              (match resync_threshold with
              | Some k
                when Option.value ~default:0 (Hashtbl.find_opt losses_since_sync node)
                     < k ->
                  rejectf
                    "event %d: node %d desynced after only %d beacon losses \
                     (threshold %d)"
                    i node
                    (Option.value ~default:0 (Hashtbl.find_opt losses_since_sync node))
                    k
              | _ -> ());
              Hashtbl.replace synced node false;
              Hashtbl.replace desynced_at node t
          | Resync { node; frame } ->
              incr resyncs;
              if Hashtbl.find_opt synced node = Some true then
                rejectf "event %d: node %d resynced while synced (frame %d)" i node frame;
              (match Hashtbl.find_opt last_join node with
              | Some tj when tj = t -> ()
              | _ ->
                  rejectf "event %d: node %d resynced without a join handshake at t=%g" i
                    node t);
              (match Hashtbl.find_opt desynced_at node with
              | Some td ->
                  let lag = t -. td in
                  max_lag := Float.max !max_lag lag;
                  (match window with
                  | Some w when lag > w ->
                      rejectf
                        "event %d: node %d took %g time units to resync (bound %g)" i
                        node lag w
                  | _ -> ());
                  Hashtbl.remove desynced_at node
              | None -> (* initial cold-start join: no open desync *) ());
              Hashtbl.replace synced node true;
              Hashtbl.replace losses_since_sync node 0
          | Join { node; parent } ->
              incr joins;
              if node = parent then rejectf "event %d: node %d joined via itself" i node;
              Hashtbl.replace last_join node t
          | Sleep { node; slots } ->
              incr sleeps;
              if slots < 0 then
                rejectf "event %d: node %d slept a negative slot count" i node;
              (match frame_length with
              | Some fl when slots > fl ->
                  rejectf "event %d: node %d slept %d slots of a %d-slot frame" i node
                    slots fl
              | _ -> ())
          | _ -> ())
        evs;
      if require_synced then
        (* report the smallest desynced node: Hashtbl.iter would pick
           whichever the hash order yields first, making the error
           message (and any test pinning it) layout-dependent *)
        (match
           Hashtbl.fold
             (fun node td acc ->
               match acc with
               | Some (n0, _) when n0 <= node -> acc
               | _ -> Some (node, td))
             desynced_at None
         with
        | Some (node, td) ->
            rejectf "node %d still desynced at end of trace (since t=%g)" node td
        | None -> ());
      Ok
        {
          f_events = Array.length evs;
          f_beacon_losses = !beacon_losses;
          f_desyncs = !desyncs;
          f_resyncs = !resyncs;
          f_joins = !joins;
          f_sleeps = !sleeps;
          f_max_lag = !max_lag;
          f_synced_end = Hashtbl.length desynced_at = 0;
        }
    with Reject msg -> Error msg
end
