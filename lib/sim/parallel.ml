open Fdlsp_graph

let run ?max_rounds ?(weight = fun _ -> 1) ?(metrics = Metrics.null) ?(spans = Span.null)
    ?points ~domains g ~init ~step =
  if domains < 1 then invalid_arg "Parallel.run: domains must be >= 1";
  let metrics = Metrics.with_label metrics "engine" "parallel" in
  let mtr = Metrics.enabled metrics in
  let n = Graph.n g in
  let max_rounds = match max_rounds with Some r -> r | None -> 10_000 + (100 * n) in
  let prt = Partition.of_graph ?points g ~parts:(max 1 (min domains (max 1 n))) in
  let k = prt.Partition.parts in
  let owner = prt.Partition.part in
  let shard_nodes = Partition.shards prt in
  (* one [init] call per node in id order, exactly like Sync.run, so a
     stateful [init] sees the same call sequence on either engine *)
  let initial = Array.init n init in
  let states = Array.map fst initial in
  let live = Array.map snd initial in
  let live_count = Array.make k 0 in
  Array.iteri
    (fun v alive -> if alive then live_count.(owner.(v)) <- live_count.(owner.(v)) + 1)
    live;
  let inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  let next_inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  (* cross-shard routing: cell (s, s') is written only by shard s (into
     the [next] buffer) and drained only by shard s' (from the [cur]
     buffer after the swap), so no cell is ever touched by two domains in
     the same round *)
  let cur_buckets : (int * int * 'msg) list array array ref =
    ref (Array.make_matrix k k [])
  in
  let nxt_buckets = ref (Array.make_matrix k k []) in
  let messages = ref 0 in
  let volume = ref 0 in
  let rounds = ref 0 in
  let shard_msgs = Array.make k 0 in
  let shard_vol = Array.make k 0 in
  let shard_exn : exn option array = Array.make k None in
  let shard_forks = Array.init k (fun _ -> Metrics.fork metrics) in
  let shard_sinks =
    Array.map (function Some (_, sk) -> sk | None -> Metrics.null) shard_forks
  in
  let measured = mtr || Span.enabled spans in
  let busy = Array.make k 0. in
  let par_total = ref 0. in
  let any_live () = Array.exists (fun c -> c > 0) live_count in
  (* drain cross-shard arrivals, step, route — all shard-local.  Inboxes
     are fixed at the round barrier and sorted before delivery, so each
     step is a function of the message multiset and shards never need to
     agree on an order *)
  let compute s =
    let round = !rounds in
    let inb = !inboxes in
    let nxt = !next_inboxes in
    let cur_b = !cur_buckets in
    let nxt_b = !nxt_buckets in
    for s' = 0 to k - 1 do
      if s' <> s then begin
        match cur_b.(s').(s) with
        | [] -> ()
        | batch ->
            cur_b.(s').(s) <- [];
            List.iter
              (fun (dest, src, payload) -> inb.(dest) <- (src, payload) :: inb.(dest))
              batch
      end
    done;
    let msink = shard_sinks.(s) in
    let ms = ref 0 and vol = ref 0 in
    let nodes = shard_nodes.(s) in
    for i = 0 to Array.length nodes - 1 do
      let v = nodes.(i) in
      if live.(v) then begin
        let inbox = Sync.sort_inbox inb.(v) in
        (* clear own slot now, so the rotation is a pure pointer swap *)
        inb.(v) <- [];
        if mtr then
          Metrics.observe msink Metrics.Name.inbox_depth
            (float_of_int (List.length inbox));
        let state, outcome = step ~round v states.(v) inbox in
        states.(v) <- state;
        let outgoing =
          match outcome with
          | Sync.Continue msgs -> msgs
          | Sync.Halt msgs ->
              live.(v) <- false;
              live_count.(s) <- live_count.(s) - 1;
              msgs
        in
        List.iter
          (fun (dest, payload) ->
            if not (Graph.mem_edge g v dest) then
              invalid_arg
                (Printf.sprintf "Parallel.run: node %d sent to non-neighbor %d" v dest);
            incr ms;
            vol := !vol + max 1 (weight payload);
            let sd = owner.(dest) in
            if sd = s then nxt.(dest) <- (v, payload) :: nxt.(dest)
            else nxt_b.(s).(sd) <- (dest, v, payload) :: nxt_b.(s).(sd))
          outgoing
      end
      else
        (* halted nodes still receive; drop, as Sync's rotation fill does *)
        inb.(v) <- []
    done;
    shard_msgs.(s) <- !ms;
    shard_vol.(s) <- !vol
  in
  let compute_guarded s =
    try
      if measured then begin
        let t0 = Clock.now () in
        compute s;
        busy.(s) <- busy.(s) +. (Clock.now () -. t0)
      end
      else compute s
    with e -> shard_exn.(s) <- Some e
  in
  (* epoch barrier: the coordinator bumps [epoch] to release the workers and
     waits for [pending] to drain; mutex crossings order all plain-field
     writes between the two sides *)
  let mu = Mutex.create () in
  let work_cv = Condition.create () in
  let done_cv = Condition.create () in
  let epoch = ref 0 in
  let pending = ref 0 in
  let quit = ref false in
  let worker s () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock mu;
      while (not !quit) && !epoch = !seen do
        Condition.wait work_cv mu
      done;
      if !quit then begin
        Mutex.unlock mu;
        running := false
      end
      else begin
        seen := !epoch;
        Mutex.unlock mu;
        compute_guarded s;
        Mutex.lock mu;
        decr pending;
        if !pending = 0 then Condition.signal done_cv;
        Mutex.unlock mu
      end
    done
  in
  let workers =
    if k = 1 then [||] else Array.init (k - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  let stop_workers () =
    if k > 1 then begin
      Mutex.lock mu;
      quit := true;
      Condition.broadcast work_cv;
      Mutex.unlock mu;
      Array.iter Domain.join workers
    end
  in
  let parallel_section () =
    if k = 1 then compute_guarded 0
    else begin
      Mutex.lock mu;
      pending := k - 1;
      incr epoch;
      Condition.broadcast work_cv;
      Mutex.unlock mu;
      (* the coordinator doubles as shard 0 *)
      compute_guarded 0;
      Mutex.lock mu;
      while !pending > 0 do
        Condition.wait done_cv mu
      done;
      Mutex.unlock mu
    end
  in
  let do_round () =
    incr rounds;
    if measured then begin
      let t0 = Clock.now () in
      Span.span spans "parallel.compute" parallel_section;
      par_total := !par_total +. (Clock.now () -. t0)
    end
    else parallel_section ();
    (* re-raise the lowest-numbered failing shard's exception, so the
       surfaced failure does not depend on domain scheduling *)
    Array.iter (function Some e -> raise e | None -> ()) shard_exn;
    Span.span spans "parallel.exchange" (fun () ->
        let dm = ref 0 and dv = ref 0 in
        for s = 0 to k - 1 do
          dm := !dm + shard_msgs.(s);
          dv := !dv + shard_vol.(s)
        done;
        messages := !messages + !dm;
        volume := !volume + !dv;
        if mtr then
          Metrics.sample metrics Metrics.Name.round_messages
            ~x:(float_of_int !rounds) (float_of_int !dm);
        (* shards already cleared their own slots *)
        let consumed = !inboxes in
        inboxes := !next_inboxes;
        next_inboxes := consumed;
        let cb = !cur_buckets in
        cur_buckets := !nxt_buckets;
        nxt_buckets := cb)
  in
  Fun.protect ~finally:stop_workers (fun () ->
      Span.span spans "parallel.run" (fun () ->
          while any_live () do
            if !rounds >= max_rounds then raise (Sync.Did_not_terminate max_rounds);
            Span.span spans "parallel.round" do_round
          done));
  (* terminal barrier bookkeeping: exact-count registry merge, shard order *)
  (match Metrics.registry metrics with
  | Some dst ->
      Array.iter
        (function Some (src, _) -> Metrics.merge_into ~dst src | None -> ())
        shard_forks
  | None -> ());
  if mtr then begin
    Metrics.gauge metrics Metrics.Name.parallel_shards (float_of_int k);
    Metrics.gauge metrics Metrics.Name.parallel_cut_frac (Partition.cut_fraction g prt);
    let busy_sum = Array.fold_left ( +. ) 0. busy in
    let denom = float_of_int k *. !par_total in
    let frac = if denom > 0. then 1. -. (busy_sum /. denom) else 0. in
    Metrics.gauge metrics Metrics.Name.parallel_barrier_frac
      (Float.max 0. (Float.min 1. frac))
  end;
  if Span.enabled spans then
    Array.iteri
      (fun s nodes ->
        Span.mark spans "parallel.shard-summary"
          ~args:
            [
              ("shard", string_of_int s);
              ("nodes", string_of_int (Array.length nodes));
              ("busy_s", Printf.sprintf "%.6f" busy.(s));
            ])
      shard_nodes;
  let stats = Stats.make ~rounds:!rounds ~messages:!messages ~volume:!volume () in
  Metrics.add_stats metrics stats;
  (states, stats)

let runner ?(faults = Fault.none) ?config ?(trace = Trace.null) ?(spans = Span.null)
    ?points ?(threshold = 2048) ~domains () =
  if domains < 1 then invalid_arg "Parallel.runner: domains must be >= 1";
  let sequential = Reliable.runner ~faults ?config ~trace ~spans () in
  if (not (Fault.is_none faults)) || Trace.enabled trace then
    (* fault verdicts, crash drops and trace events are all ordered by
       transmission, so faulty and traced runs take the sequential engine:
       raw Sync over a clean channel (blips at most), the ARQ layer over a
       lossy or crashing one *)
    sequential
  else
    {
      Reliable.run =
        (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
          if domains > 1 && Graph.n g >= threshold then
            run ?max_rounds ?weight ~spans ?metrics ?points ~domains g ~init ~step
          else
            (* bit-identical engines, so the small-graph fallback (domain
               spawns cost more than the whole run) is unobservable *)
            sequential.Reliable.run ?max_rounds ?weight ?blip ?metrics g ~init ~step);
      faulty = false;
    }
