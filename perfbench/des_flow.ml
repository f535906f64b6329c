(* des-flow: the simulated installation under open-loop escrow traffic.

   64 sites, 16 items, about 10 units per site per item.  Poisson arrivals
   in simulated time, half increments and half decrements of 1-3 units at
   random sites, each submitted through [System.exec] with a retry policy.
   With fragments this small about one commit in five has to pull value
   from other sites, so the engine, the network, the sites' request/grant
   path and the Vm protocol do most of the work.  Every round replays the
   same seed-derived arrivals, so every count and every simulated latency
   is a function of the seed alone. *)

open Meter

let sites = 64
let n_items = 16
let per_site = 10
let rate = 8000.0 (* arrivals per simulated second *)
(* The warm-up runs until value has scattered and the share of commits
   that pull remote value has levelled off (about 0.8 simulated s). *)
let warm_s = 0.75 (* warm-up arrivals, simulated seconds *)
let load_s = 2.0 (* measured arrivals, simulated seconds *)
let crash_at = 2.4 (* 0.4 s after a periodic checkpoint *)
let slice_s = 0.05 (* each [run_until] advances this much simulated time *)
let retries = 50
let backoff = 0.01
let checkpoint_every = 0.5
let total_per_item = sites * per_site

type arrival = { at : float; site : int; item : int; delta : int }

(* The seed's inputs: arrival times (exponential gaps), home sites, items,
   and signed amounts. *)
let inputs ~seed =
  let st = Random.State.make [| seed; 0xde5 |] in
  let horizon = warm_s +. load_s in
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= horizon then Array.of_list (List.rev acc)
    else
      let site = Random.State.int st sites in
      let item = Random.State.int st n_items in
      let amount = 1 + Random.State.int st 3 in
      let delta = if Random.State.bool st then amount else -amount in
      go t ({ at = t; site; item; delta } :: acc)
  in
  go 0.0 []

(* What a round observed; the seed-determined part must repeat exactly. *)
type round = {
  create : float; (* wall seconds of creating the installation *)
  warm_slices : float array; (* wall seconds of each warm-up slice *)
  load_wall : float;
  slices : float array; (* wall seconds of each measured slice *)
  report : float;
  recoveries : float list; (* wall seconds of each site's recovery *)
  committed : int;
  failed_ops : int;
  attempted_ops : int;
  events : int;
  messages : int;
  latencies : float list; (* simulated seconds, in commit order *)
  gcd : gc;
  vm_created : int;
  vm_retx : int;
  vm_dups : int;
  aborts : int;
  trace_events : int;
  trace_dropped : int;
  window_commits : int;
  wal_records : int;
  forces : int;
  metrics_s : float;
  spans : Dvp.Obs.Spans.t option;
}

let wal_appended sys =
  let n = ref 0 in
  for s = 0 to sites - 1 do
    n := !n + Dvp.Storage.Wal.appended (Dvp.Site.wal (Dvp.System.site sys s))
  done;
  !n

let one_round r ~seed ~trace arrivals =
  let n_warm =
    let k = ref 0 in
    Array.iter (fun a -> if a.at < warm_s then incr k) arrivals;
    !k
  in
  let ledger = Array.make n_items 0 in
  let committed = ref 0 and failed_ops = ref 0 and resolved = ref 0 in
  let lat = ref [] in
  let measured = ref false in
  (* Commits since the program's trace was cleared, whichever phase
     submitted them: the trace must hold one committed span for each. *)
  let window_commits = ref 0 and in_window = ref false in
  let ptrace = if trace then Some (Dvp.Trace.create ~capacity:(1 lsl 21) ()) else None in
  (* Set-up: the installation, then the warm-up arrivals, which let lazy
     per-destination state (Vm senders, link rows) and the heap settle. *)
  let t0 = now () in
  let sys =
    span "System.create" (fun () ->
        let sys = Dvp.System.create ~seed ?trace:ptrace ~n:sites () in
        for item = 0 to n_items - 1 do
          Dvp.System.add_item sys ~item ~total:total_per_item ()
        done;
        Dvp.System.start_periodic_checkpoints sys ~every:checkpoint_every;
        sys)
  in
  let sub = Dvp.System.sub sys in
  let submit a =
    let t_sub = Dvp.Substrate.now sub in
    let counted = !measured in
    let op = if a.delta > 0 then Dvp.Op.Incr a.delta else Dvp.Op.Decr (-a.delta) in
    let req =
      Dvp.Txn.with_retry ~retries ~backoff (Dvp.Txn.write ~site:a.site [ (a.item, op) ])
    in
    span "System.exec" (fun () ->
        Dvp.System.exec sys req ~on_done:(fun o ->
            incr resolved;
            if Dvp.Txn.committed o then begin
              ledger.(a.item) <- ledger.(a.item) + a.delta;
              if !in_window then incr window_commits;
              if counted then begin
                incr committed;
                lat := (Dvp.Substrate.now sub -. t_sub) :: !lat
              end
            end
            else if counted then incr failed_ops))
  in
  (* Arrivals chain: each one schedules the next, so the queue holds one
     pending arrival rather than the whole input. *)
  let rec arm i =
    if i < Array.length arrivals then
      ignore
        (Dvp.Substrate.schedule_at sub ~at:arrivals.(i).at (fun () ->
             if i = n_warm then measured := true;
             submit arrivals.(i);
             arm (i + 1)))
  in
  arm 0;
  let run_to t = span "System.run_until" (fun () -> Dvp.System.run_until sys t) in
  (* Simulated time advances on a fixed grid of slices, so every phase
     boundary falls at the same simulated instant in every round. *)
  let tick = ref 0 in
  let advance () =
    incr tick;
    run_to (float_of_int !tick *. slice_s)
  in
  let ticks x = int_of_float (Float.round (x /. slice_s)) in
  let create = now () -. t0 in
  let warm_slices =
    Array.init (ticks warm_s) (fun _ ->
        let t = now () in
        advance ();
        now () -. t)
  in
  (* Measured phase: the remaining arrivals until every request has its
     outcome.  Once, at a fixed instant mid-load, every site in turn is
     crashed and recovered from its own log; it must come back holding
     exactly the fragments it held.  Its transactions in flight abort and
     are retried by their clients.  Recovery wall time is kept out of the
     load's. *)
  let eng = Dvp.System.engine sys in
  let net0 = (Dvp.Net.Network.stats (Dvp.System.network sys)).Dvp.Net.Network.sent in
  let m0 = Dvp.System.metrics sys in
  let ev0 = Dvp.Engine.events eng and wal0 = wal_appended sys in
  Option.iter Dvp.Trace.clear ptrace;
  in_window := true;
  Gc.full_major ();
  let g0 = gc () in
  let total = Array.length arrivals in
  let recoveries = ref [] and slices = ref [] in
  while !tick < ticks (warm_s +. load_s) || !resolved < total do
    let t = now () in
    advance ();
    slices := (now () -. t) :: !slices;
    if !tick = ticks crash_at then
      for s = 0 to sites - 1 do
        let frags () =
          List.init n_items (fun item -> Dvp.Site.fragment (Dvp.System.site sys s) ~item)
        in
        let before = frags () in
        Dvp.System.crash_site sys s;
        let t = now () in
        span "System.recover_site" (fun () -> Dvp.System.recover_site sys s);
        recoveries := (now () -. t) :: !recoveries;
        check r (before = frags ()) "des-flow seed %d: site %d recovered different fragments" seed s
      done
  done;
  let slices = Array.of_list (List.rev !slices) in
  let load_wall = Array.fold_left ( +. ) 0.0 slices in
  let gcd = gc_diff g0 (gc ()) in
  let events = Dvp.Engine.events eng - ev0 in
  let messages =
    (Dvp.Net.Network.stats (Dvp.System.network sys)).Dvp.Net.Network.sent - net0
  in
  let wal_records = wal_appended sys - wal0 in
  let trace_events, trace_dropped =
    match ptrace with
    | Some tr -> (List.length (Dvp.Trace.events tr), Dvp.Trace.drop_count tr)
    | None -> (0, 0)
  in
  (* Report: the merged metrics plus the conservation verdict. *)
  Gc.full_major ();
  let t2 = now () in
  let m1 = span "System.metrics" (fun () -> Dvp.System.metrics sys) in
  let metrics_s = now () -. t2 in
  let verdict =
    span "System.conserved_all" (fun () -> Dvp.System.conserved_all sys)
  in
  let report = now () -. t2 in
  let spans =
    Option.map
      (fun tr ->
        span "Spans.of_events" (fun () ->
            Dvp.Obs.Spans.of_events ~dropped:(Dvp.Trace.drop_count tr) (Dvp.Trace.events tr)))
      ptrace
  in
  (* Outside-in checks against the benchmark's own ledger. *)
  check r verdict "des-flow seed %d: System.conserved_all is false" seed;
  for item = 0 to n_items - 1 do
    let frags = Dvp.System.fragments sys ~item in
    let held = Array.fold_left ( + ) 0 frags in
    let flight = Dvp.System.in_flight sys ~item in
    let want = total_per_item + ledger.(item) in
    check r (held + flight = want)
      "des-flow seed %d item %d: fragments %d + in flight %d <> installed %d + deltas %d" seed item
      held flight total_per_item ledger.(item);
    Array.iteri
      (fun s f -> check r (f >= 0) "des-flow seed %d: site %d item %d fragment %d < 0" seed s item f)
      frags
  done;
  {
    create;
    warm_slices;
    load_wall;
    slices;
    report;
    recoveries = !recoveries;
    committed = !committed;
    failed_ops = !failed_ops;
    attempted_ops = total - n_warm;
    events;
    messages;
    latencies = List.rev !lat;
    gcd;
    vm_created = Dvp.Metrics.vm_created_count m1 - Dvp.Metrics.vm_created_count m0;
    vm_retx = Dvp.Metrics.vm_retransmissions m1 - Dvp.Metrics.vm_retransmissions m0;
    vm_dups = Dvp.Metrics.vm_duplicates m1 - Dvp.Metrics.vm_duplicates m0;
    aborts = Dvp.Metrics.aborted m1 - Dvp.Metrics.aborted m0;
    trace_events;
    trace_dropped;
    window_commits = !window_commits;
    wal_records;
    forces = Dvp.Metrics.log_forces m1 - Dvp.Metrics.log_forces m0;
    metrics_s;
    spans;
  }

let fingerprint (x : round) =
  ( x.committed,
    x.failed_ops,
    x.events,
    x.messages,
    x.vm_created,
    x.vm_retx,
    x.wal_records,
    x.latencies )

let run r ~seed ~seconds ~trace =
  let arrivals = inputs ~seed in
  let start = now () in
  let rounds = ref [] in
  while !rounds = [] || now () -. start < seconds do
    let x = span "bench.round" (fun () -> one_round r ~seed ~trace arrivals) in
    (match !rounds with
    | first :: _ ->
      check r (fingerprint x = fingerprint first)
        "des-flow seed %d: a round's seed-determined counts differ from the first round's" seed
    | [] -> ());
    rounds := !rounds @ [ x ];
    (* Each round starts from a compacted heap, so the process's peak
       resident set is one round's peak. *)
    Gc.compact ();
    r.attempted <- r.attempted + x.attempted_ops;
    r.failed <- r.failed + x.failed_ops
  done;
  let rounds = !rounds in
  let first = List.hd rounds in
  let med f = median (List.map f rounds) in
  let rate x = float_of_int x.committed /. x.load_wall in
  let m = metric r in
  note r "rounds" (string_of_int (List.length rounds));
  note r "window_spread_commits_per_s" (Printf.sprintf "%.4f" (spread (List.map rate rounds)));
  note r "windows_commits_per_s"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.0f" (rate x)) rounds));
  note r "latency_samples_per_round" (string_of_int (List.length first.latencies));
  (* End to end. *)
  (* A slice of simulated time does the same work in every round (the same
     events, the same allocations, the same collections), so the load's time
     at the host's full speed is the sum over slices of each slice's fastest
     time across rounds.  On the 2-vCPU host these figures come from, a
     vCPU's speed flips between two levels ~1.6x apart within seconds; a
     slice (~25 ms) is short enough to fall inside one level. *)
  let fastest_sum f =
    let k = List.fold_left (fun acc x -> min acc (Array.length (f x))) max_int rounds in
    let sum = ref 0.0 in
    for i = 0 to k - 1 do
      sum := !sum +. fastest (List.map (fun x -> (f x).(i)) rounds)
    done;
    !sum
  in
  m "commits_per_s" "1/s" (float_of_int first.committed /. fastest_sum (fun x -> x.slices));
  m "recovery_ms" "ms" (best_time (List.concat_map (fun x -> x.recoveries) rounds) *. 1e3);
  m "alloc_bytes_per_commit" "B"
    (med (fun x -> x.gcd.alloc_words *. word_bytes /. float_of_int x.committed));
  m "report_s" "s" (best_time (List.map (fun x -> x.report) rounds));
  (* Set-up on the same estimator: the fastest creation, plus each warm-up
     slice's fastest time. *)
  m "setup_s" "s"
    (fastest (List.map (fun x -> x.create) rounds) +. fastest_sum (fun x -> x.warm_slices));
  (* Per layer (seed-determined counts come from the first round). *)
  let per x = fratio x first.committed in
  m "client.commit_p50_us" "us" (pct first.latencies 50.0 *. 1e6);
  m "client.commit_p90_us" "us" (pct first.latencies 90.0 *. 1e6);
  m "client.commit_p99_us" "us" (pct first.latencies 99.0 *. 1e6);
  m "client.samples" "count" (float_of_int (List.length first.latencies));
  m "engine.events_per_commit" "count" (per first.events);
  m "engine.ns_per_event" "ns" (med (fun x -> x.load_wall *. 1e9 /. float_of_int x.events));
  m "net.messages_per_commit" "count" (per first.messages);
  m "site.aborts_per_commit" "count" (per first.aborts);
  m "vm.created_per_commit" "count" (per first.vm_created);
  m "vm.retransmits_per_commit" "count" (per first.vm_retx);
  m "vm.duplicates_per_commit" "count" (per first.vm_dups);
  m "wal.records_per_commit" "count" (per first.wal_records);
  m "wal.forces_per_commit" "count" (per first.forces);
  m "obs.metrics_summary_ms" "ms" (med (fun x -> x.metrics_s) *. 1e3);
  m "trace.events_per_commit" "count" (per first.trace_events);
  m "trace.dropped" "count" (float_of_int first.trace_dropped);
  m "gc.minor_collections_per_kcommit" "count"
    (med (fun x -> float_of_int x.gcd.minor *. 1000.0 /. float_of_int x.committed));
  m "gc.promoted_bytes_per_commit" "B"
    (med (fun x -> x.gcd.promoted_words *. word_bytes /. float_of_int x.committed));
  m "gc.major_collections" "count" (med (fun x -> float_of_int x.gcd.major));
  match first.spans with
  | None -> ()
  | Some sp ->
    let module S = Dvp.Obs.Spans in
    check r sp.S.complete "des-flow seed %d: the trace dropped %d events" seed sp.S.dropped;
    check r
      (S.committed_count sp = first.window_commits)
      "des-flow seed %d: %d committed spans against %d commits" seed (S.committed_count sp)
      first.window_commits;
    Protocol_spans.report r sp ~unit_s:1e6
