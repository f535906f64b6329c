(* wall-escrow and wall-transfer: the domains runtime, two site domains
   with file-backed WALs, driven only from the main thread.

   wall-escrow: a closed loop of local escrow increments ([Cluster.run_load])
   to a fixed commit count, with the program's trace shards on.  It is the
   local commit path at saturation: WAL force to file, [Walfile] framing,
   trace emission and the minor GC, with no Vm, network or engine.

   wall-transfer: the program's mixed background load
   ([Cluster.start_bg_load]: increments, decrements, ~15 % cross-site
   pushes) to a fixed commit count while the main thread submits
   [Cluster.exec] requests on a fixed schedule.  Value crosses domains in
   Vm; tracing is off.

   Both end every round by judging durable state (each site's WAL file,
   decoded with [Walfile.read] and folded with [Log_replay]) and by killing
   and respawning every site from its file. *)

open Meter

type kind = Escrow | Transfer

let n = 2
let warm_load_s = 0.05 (* load burst at set-up *)
let warm_execs = 200 (* client requests per site at set-up *)
(* Throughput is measured over load slices this long: short enough that a
   run holds many of them, long enough to dwarf a slice's start-up. *)
let window_s = function Escrow -> 0.02 | Transfer -> 0.05
let min_slice_s = 2e-4
let escrow_commits = 60_000 (* every commit of a wall-escrow round before its client probe *)
let transfer_commits = 60_000 (* background-load commits per round *)
let probe_execs = 1000 (* wall-escrow client requests per round *)
let client_interval = 400e-6 (* wall-transfer client schedule *)
let topup_margin = 200
let retries = 20
let backoff = 0.001

let items = function
  | Escrow -> [ (0, 1_000_000) ]
  | Transfer -> [ (0, 200_000); (1, 200_000); (2, 200_000); (3, 200_000) ]

let name = function Escrow -> "wall-escrow" | Transfer -> "wall-transfer"

(* ------------------------------------------------------------ durable oracle *)

(* Rebuild one site's state from its WAL file alone. *)
type durable = {
  records : Dvp.Log_event.t list;
  file_bytes : int;
  fragments : (int * int) list;
  deltas : (int * int) list;
  installed : (int * int) list;
  sent : (int * int) list;
  recv : (int * int) list;
  owed : (int * int) list; (* (dst, seq) of Vm the log still owes *)
  accepted : int array; (* acceptance watermark per peer *)
  negative : int; (* logged values below zero *)
}

let durable_of_file ~items path =
  let rd = span "Walfile.read" (fun () -> Dvp.Walfile.read path) in
  let wal = Dvp.Storage.Wal.create () in
  List.iter (fun rc -> Dvp.Storage.Wal.append ~forced:false wal rc) rd.Dvp.Walfile.records;
  Dvp.Storage.Wal.force wal;
  let db, vm =
    span "Log_replay.views" (fun () ->
        (Dvp.Log_replay.db_view wal, Dvp.Log_replay.vm_view ~n wal))
  in
  let look tbl item = try Hashtbl.find tbl item with Not_found -> 0 in
  let per f = List.map (fun item -> (item, f item)) items in
  let negative = ref 0 in
  let neg v = if v < 0 then incr negative in
  List.iter
    (fun rc ->
      let actions = List.iter (fun (Dvp.Log_event.Set_fragment { value; _ }) -> neg value) in
      match rc with
      | Dvp.Log_event.Vm_create { amount; actions = a; _ } ->
        neg amount;
        actions a
      | Dvp.Log_event.Vm_accept { amount; new_value; _ } ->
        neg amount;
        neg new_value
      | Dvp.Log_event.Txn_commit { actions = a; _ } -> actions a
      | Dvp.Log_event.Checkpoint { fragments; _ } -> List.iter (fun (_, v) -> neg v) fragments
      | _ -> ())
    rd.Dvp.Walfile.records;
  {
    records = rd.Dvp.Walfile.records;
    file_bytes = rd.Dvp.Walfile.total_bytes;
    fragments =
      per (fun item ->
          if Dvp.Storage.Local_db.mem db.Dvp.Log_replay.db ~item then
            Dvp.Storage.Local_db.value db.Dvp.Log_replay.db ~item
          else 0);
    deltas = per (look db.Dvp.Log_replay.deltas);
    installed = per (look db.Dvp.Log_replay.installed);
    sent = per (look vm.Dvp.Log_replay.vm_cum_sent);
    recv = per (look vm.Dvp.Log_replay.vm_cum_recv);
    owed = Hashtbl.fold (fun k _ acc -> k :: acc) vm.Dvp.Log_replay.vm_outbox [];
    accepted = vm.Dvp.Log_replay.vm_accepted;
    negative = !negative;
  }

let sum_over l item = List.fold_left (fun acc d -> acc + List.assoc item d) 0 l

(* ------------------------------------------------------------ one round *)

type round = {
  setup : float;
  load_wall : float;
  load_commits : int; (* commits inside the timed load phase *)
  total_commits : int; (* every commit of the round, set-up included *)
  report : float;
  stats_s : float;
  merge_s : float;
  windows : float list; (* commits per second of each full-length load slice *)
  recoveries : float list; (* wall seconds of each respawn *)
  respawn_rest : float list; (* each respawn minus reading the same file *)
  replayed : int;
  file_bytes : int;
  file_records : int;
  read_s : float;
  append_s : float;
  wal_records : int;
  forces : int;
  gcd : gc;
  cpu : float;
  client : float list; (* seconds from due time *)
  late : float list; (* how late the generator sent *)
  idle_rtt : float list;
  depth : int list;
  vm_created : int;
  vm_retx : int;
  vm_dups : int;
  messages : int;
  aborts : int;
  trace_events : int;
  trace_dropped : int;
  emit_ns : float;
  emit_bytes : float;
  spans : Dvp.Obs.Spans.t option;
  attempted_ops : int;
  failed_ops : int;
}

(* The client sleeps until each request is due.  It does not spin: with
   two site domains on two cores, a spinning client takes a core from a
   site and the latency tail then depends on the scheduler. *)
let wait_until due =
  let ahead = due -. now () in
  if ahead > 0.0 then Unix.sleepf ahead

let exec c req = span "Cluster.exec" (fun () -> Dvp.Cluster.exec c req)

(* Stats summed over the live sites. *)
let fold_stats stats f = Array.fold_left (fun acc st -> acc + f st) 0 stats

let metric_sum stats f = fold_stats stats (fun st -> f st.Dvp.Cluster.st_metrics)

let one_round r kind ~seed ~trace ~dir ~round_no =
  let wname = name kind in
  let window_s = window_s kind in
  let items = items kind in
  let item_ids = List.map fst items in
  let rng = Random.State.make [| seed; round_no; 0x3a11 |] in
  let ledger = Hashtbl.create 8 in
  List.iter (fun (i, _) -> Hashtbl.replace ledger i 0) items;
  let book item d = Hashtbl.replace ledger item (Hashtbl.find ledger item + d) in
  let attempted = ref 0 and failed = ref 0 and commits = ref 0 in
  let wal_dir = Filename.concat dir (Printf.sprintf "r%d" round_no) in
  Unix.mkdir wal_dir 0o700;
  (* Set-up: the cluster, then its warm-up (below). *)
  let t0 = now () in
  let c =
    span "Cluster.create" (fun () ->
        Dvp.Cluster.create ~seed ~wal_dir ~tracing:(kind = Escrow || trace)
          ~trace_capacity:(1 lsl 18) ~n ~items ())
  in
  let run_exec site item delta =
    let op = if delta > 0 then Dvp.Op.Incr delta else Dvp.Op.Decr (-delta) in
    let req = Dvp.Txn.with_retry ~retries ~backoff (Dvp.Txn.write ~site [ (item, op) ]) in
    incr attempted;
    match exec c req with
    | Dvp.Txn.Committed _ ->
      incr commits;
      book item delta;
      true
    | Dvp.Txn.Aborted _ ->
      incr failed;
      false
  in
  (* Warm-up: a fixed-length burst of the workload's own load, then a fixed
     number of client requests per site on the idle cluster. *)
  (match kind with
  | Escrow ->
    let k =
      span "Cluster.run_load" (fun () ->
          Dvp.Cluster.run_load c ~duration:warm_load_s ~item:0 ())
    in
    attempted := !attempted + k;
    commits := !commits + k;
    book 0 k
  | Transfer ->
    span "Cluster.start_bg_load" (fun () ->
        Dvp.Cluster.start_bg_load c ~duration:warm_load_s ());
    Unix.sleepf (warm_load_s +. 0.003));
  let idle_rtt = ref [] in
  for k = 0 to (warm_execs * n) - 1 do
    let t = now () in
    ignore (run_exec (k mod n) (List.nth item_ids (k mod List.length item_ids)) 1);
    idle_rtt := (now () -. t) :: !idle_rtt
  done;
  ignore (Dvp.Cluster.quiesce c);
  let setup = now () -. t0 in
  (* Measured phase: fixed-length windows of load, then shorter slices to
     land just short of the round's commit target. *)
  Gc.full_major ();
  let g0 = gc () and cpu0 = cpu_s () in
  let client = ref [] and late = ref [] and depth = ref [] and windows = ref [] in
  let load_wall = ref 0.0 and load_commits = ref 0 in
  let slice_length ~remaining ~est =
    if float_of_int remaining > 1.5 *. est *. window_s then window_s
    else Float.min window_s (Float.max min_slice_s (0.5 *. float_of_int remaining /. est))
  in
  (match kind with
  | Escrow ->
    (* The round's logs hold exactly [escrow_commits] commits: client
       increments top up what the load slices left, whatever the machine's
       speed. *)
    let remaining () = escrow_commits - !commits in
    while remaining () > topup_margin do
      let est = if !load_wall > 0.0 then float_of_int !load_commits /. !load_wall else 1e5 in
      let d = slice_length ~remaining:(remaining ()) ~est in
      let t = now () in
      let k =
        span "Cluster.run_load" (fun () ->
            Dvp.Cluster.run_load c ~duration:d ~item:0 ())
      in
      let dt = now () -. t in
      if d = window_s then windows := (float_of_int k /. dt) :: !windows;
      load_wall := !load_wall +. dt;
      load_commits := !load_commits + k;
      attempted := !attempted + k;
      commits := !commits + k;
      book 0 k
    done;
    for k = 0 to remaining () - 1 do
      ignore (run_exec (k mod n) 0 1)
    done
  | Transfer ->
    let bg_start = Dvp.Cluster.bg_committed c in
    let bg () = Dvp.Cluster.bg_committed c - bg_start in
    let next_due = ref (now ()) in
    while transfer_commits - bg () > topup_margin do
      let est = if !load_wall > 0.0 then float_of_int !load_commits /. !load_wall else 5e4 in
      let d = slice_length ~remaining:(transfer_commits - bg ()) ~est in
      let t = now () and bg0 = bg () and c0 = !commits in
      span "Cluster.start_bg_load" (fun () ->
          Dvp.Cluster.start_bg_load c ~duration:d ());
      let deadline = t +. d in
      next_due := Float.max !next_due t;
      (* Open loop: each request is due at a fixed interval; its latency
         runs from when it was due, so a stall counts against every request
         queued behind it. *)
      while !next_due < deadline do
        let due = !next_due in
        wait_until due;
        let sent = now () in
        for s = 0 to n - 1 do
          depth := Dvp.Cluster.mailbox_depth c s :: !depth
        done;
        let site = Random.State.int rng n in
        let item = Random.State.int rng (List.length item_ids) in
        let amount = 1 + Random.State.int rng 3 in
        let delta = if Random.State.bool rng then amount else -amount in
        ignore (run_exec site item delta);
        client := (now () -. due) :: !client;
        late := (sent -. due) :: !late;
        next_due := due +. client_interval
      done;
      (* The site loops stop at their next step after the deadline; the
         window's commits are counted once they have, and divided by the
         load span [d] alone, so the wait is not charged to the program. *)
      let rest = deadline +. 0.003 -. now () in
      if rest > 0.0 then Unix.sleepf rest;
      let dt = now () -. t in
      let k = bg () - bg0 + (!commits - c0) in
      if d = window_s then windows := (float_of_int k /. d) :: !windows;
      load_wall := !load_wall +. dt;
      load_commits := !load_commits + k
    done;
    let all_bg = Dvp.Cluster.bg_committed c in
    attempted := !attempted + all_bg;
    commits := !commits + all_bg);
  let gcd = gc_diff g0 (gc ()) in
  let cpu = cpu_s () -. cpu0 in
  (* wall-escrow's client figure: one client issuing increments back to
     back (a closed loop), each forced to the site's file. *)
  if kind = Escrow then
    for k = 0 to probe_execs - 1 do
      let t = now () in
      ignore (run_exec (k mod n) 0 1);
      client := (now () -. t) :: !client
    done;
  let quiesced =
    span "Cluster.quiesce" (fun () -> Dvp.Cluster.quiesce ~timeout:30.0 c)
  in
  check r quiesced "%s seed %d: cluster did not quiesce" wname seed;
  (* Report: stats and the conservation verdict, plus, in the traced run,
     the merged trace.  Its output is discarded: producing it is the cost
     measured.  The untraced run, which reports no report figures, skips
     it, so that more of its time goes to the measured load. *)
  Gc.full_major ();
  let t_rep = now () in
  let stats = span "Cluster.stats" (fun () -> Dvp.Cluster.stats c) in
  let stats_s = now () -. t_rep in
  let conserved =
    span "Cluster.conserved_all" (fun () -> Dvp.Cluster.conserved_all c)
  in
  let merge_s =
    if not trace then 0.0
    else begin
      let t_merge = now () in
      ignore (span "Cluster.trace_jsonl" (fun () -> Dvp.Cluster.trace_jsonl c) : string option);
      now () -. t_merge
    end
  in
  let report = now () -. t_rep in
  check r conserved "%s seed %d: Cluster.conserved_all is false" wname seed;
  (* Outside-in checks. *)
  let live item = Dvp.Cluster.fragments c ~item in
  let live_frags = List.map (fun item -> (item, live item)) item_ids in
  let durables =
    List.init n (fun s ->
        match Dvp.Cluster.wal_path c s with
        | None -> failwith "cluster has no WAL file"
        | Some path -> durable_of_file ~items:item_ids path)
  in
  List.iter
    (fun item ->
      let inst = List.assoc item items in
      let frag_sum = sum_over (List.map (fun d -> d.fragments) durables) item in
      let deltas = sum_over (List.map (fun d -> d.deltas) durables) item in
      let installed = sum_over (List.map (fun d -> d.installed) durables) item in
      let flight =
        sum_over (List.map (fun d -> d.sent) durables) item
        - sum_over (List.map (fun d -> d.recv) durables) item
      in
      check r (installed = inst) "%s seed %d item %d: durable installs %d <> %d" wname seed item
        installed inst;
      check r (flight = 0) "%s seed %d item %d: %d durable value in flight at quiesce" wname seed
        item flight;
      check r
        (frag_sum + flight = installed + deltas)
        "%s seed %d item %d: durable fragments %d + in flight %d <> installed %d + deltas %d" wname
        seed item frag_sum flight installed deltas;
      List.iteri
        (fun s d ->
          let l = (List.assoc item live_frags).(s) in
          let f = List.assoc item d.fragments in
          check r (f = l) "%s seed %d site %d item %d: durable fragment %d <> live %d" wname seed s
            item f l)
        durables;
      if kind = Escrow then begin
        let held = Array.fold_left ( + ) 0 (List.assoc item live_frags) in
        check r
          (held = inst + Hashtbl.find ledger item)
          "%s seed %d: fragments %d <> installed %d + commits counted %d" wname seed held inst
          (Hashtbl.find ledger item)
      end)
    item_ids;
  List.iteri
    (fun s d ->
      check r (d.negative = 0) "%s seed %d site %d: %d negative logged values" wname seed s
        d.negative;
      (* Ack progress is logged unforced, so a sender's log may still owe
         Vm its peer has accepted; each must be below the peer's durable
         acceptance watermark. *)
      List.iter
        (fun (dst, seq) ->
          let accepted = (List.nth durables dst).accepted.(s) in
          check r (seq <= accepted)
            "%s seed %d: Vm %d->%d seq %d owed by the sender's log, accepted up to %d" wname seed s
            dst seq accepted)
        d.owed)
    durables;
  (* The trace: complete, one committed span per commit. *)
  let trace_events, trace_dropped, spans, emit_ns, emit_bytes =
    match Dvp.Cluster.shards c with
    | None -> (0, 0, None, 0.0, 0.0)
    | Some sh ->
      let events =
        span "Shards.merged_events" (fun () -> Dvp.Shards.merged_events sh)
      in
      let dropped = Dvp.Shards.total_dropped sh in
      let sp =
        span "Spans.of_events" (fun () -> Dvp.Obs.Spans.of_events ~dropped events)
      in
      check r (dropped = 0 && sp.Dvp.Obs.Spans.complete) "%s seed %d: trace dropped %d events"
        wname seed dropped;
      check r
        (Dvp.Obs.Spans.committed_count sp = !commits)
        "%s seed %d: %d committed spans against %d commits" wname seed
        (Dvp.Obs.Spans.committed_count sp) !commits;
      (* Probe: the run's own events through [Trace.emit] into a fresh ring. *)
      let emit_ns, emit_bytes =
        if not trace then (0.0, 0.0)
        else begin
          let k = List.length events in
          let ring = Dvp.Trace.create ~capacity:(max 1 k) () in
          let w0 = Gc.minor_words () in
          let t = now () in
          span "Trace.emit" (fun () ->
              List.iter (fun (time, ev) -> Dvp.Trace.emit ring ~time ev) events);
          let dt = now () -. t in
          let words = Gc.minor_words () -. w0 in
          (dt *. 1e9 /. float_of_int k, words *. word_bytes /. float_of_int k)
        end
      in
      (Dvp.Shards.total_events sh, dropped, (if trace then Some sp else None), emit_ns, emit_bytes)
  in
  (* Walfile probes over the run's own records: append them to a scratch
     file, then read that file back. *)
  let file_records = List.fold_left (fun acc d -> acc + List.length d.records) 0 durables in
  let file_bytes = List.fold_left (fun acc (d : durable) -> acc + d.file_bytes) 0 durables in
  let append_s, read_s =
    if not trace then (0.0, 0.0)
    else begin
      let scratch = Filename.concat wal_dir "probe.wal" in
      let oc = Dvp.Walfile.create scratch in
      let t = now () in
      span "Walfile.append" (fun () ->
          List.iter (fun d -> List.iter (Dvp.Walfile.append oc) d.records) durables);
      let append_s = now () -. t in
      close_out oc;
      let t = now () in
      let rd = span "Walfile.read" (fun () -> Dvp.Walfile.read scratch) in
      let read_s = now () -. t in
      check r
        (List.length rd.Dvp.Walfile.records = file_records)
        "%s seed %d: probe file read back %d of %d records" wname seed
        (List.length rd.Dvp.Walfile.records) file_records;
      Sys.remove scratch;
      (append_s, read_s)
    end
  in
  (* Recovery: kill each site, tear its WAL tail on wall-transfer, and
     respawn it from the file alone. *)
  Gc.full_major ();
  let recoveries = ref [] and rest = ref [] and replayed = ref 0 in
  for s = 0 to n - 1 do
    let before = List.map (fun item -> (live item).(s)) item_ids in
    ignore (span "Cluster.kill_site" (fun () -> Dvp.Cluster.kill_site c s));
    let path = Option.get (Dvp.Cluster.wal_path c s) in
    if kind = Transfer then Dvp.Walfile.tear path ~junk:64;
    let t = now () in
    let rd = span "Walfile.read" (fun () -> Dvp.Walfile.read path) in
    let read_t = now () -. t in
    let t = now () in
    let k = span "Cluster.respawn_site" (fun () -> Dvp.Cluster.respawn_site c s) in
    let rs = now () -. t in
    recoveries := rs :: !recoveries;
    rest := (rs -. read_t) :: !rest;
    let valid = List.length rd.Dvp.Walfile.records in
    (match k with
    | Some k ->
      replayed := !replayed + k;
      check r (k = valid) "%s seed %d site %d: replayed %d of %d valid records" wname seed s k
        valid
    | None -> check r false "%s seed %d site %d: respawn refused" wname seed s);
    let after = List.map (fun item -> (live item).(s)) item_ids in
    check r (before = after) "%s seed %d site %d: respawned with different fragments" wname
      seed s
  done;
  check r (Dvp.Cluster.quiesce ~timeout:30.0 c && Dvp.Cluster.conserved_all c)
    "%s seed %d: not conserved after respawns" wname seed;
  span "Cluster.stop" (fun () -> Dvp.Cluster.stop c);
  Array.iter (fun f -> Sys.remove (Filename.concat wal_dir f)) (Sys.readdir wal_dir);
  Unix.rmdir wal_dir;
  {
    setup;
    load_wall = !load_wall;
    load_commits = !load_commits;
    total_commits = !commits;
    report;
    stats_s;
    merge_s;
    windows = !windows;
    recoveries = !recoveries;
    respawn_rest = !rest;
    replayed = !replayed;
    file_bytes;
    file_records;
    read_s;
    append_s;
    wal_records = fold_stats stats (fun st -> st.Dvp.Cluster.st_wal);
    forces = metric_sum stats Dvp.Metrics.log_forces;
    gcd;
    cpu;
    client = !client;
    late = !late;
    idle_rtt = !idle_rtt;
    depth = !depth;
    vm_created = metric_sum stats Dvp.Metrics.vm_created_count;
    vm_retx = metric_sum stats Dvp.Metrics.vm_retransmissions;
    vm_dups = metric_sum stats Dvp.Metrics.vm_duplicates;
    messages = metric_sum stats Dvp.Metrics.messages;
    aborts = metric_sum stats Dvp.Metrics.aborted;
    trace_events;
    trace_dropped;
    emit_ns;
    emit_bytes;
    spans;
    attempted_ops = !attempted;
    failed_ops = !failed;
  }

let run r kind ~seed ~seconds ~trace ~dir =
  let start = now () in
  let rounds = ref [] in
  while !rounds = [] || now () -. start < seconds do
    let round_no = List.length !rounds in
    let x =
      span "bench.round" (fun () -> one_round r kind ~seed ~trace ~dir ~round_no)
    in
    rounds := !rounds @ [ x ];
    (* Each round starts from a compacted heap, so the process's peak
       resident set is one round's peak. *)
    Gc.compact ();
    r.attempted <- r.attempted + x.attempted_ops;
    r.failed <- r.failed + x.failed_ops
  done;
  let rounds = !rounds in
  let med f = median (List.map f rounds) in
  let windows = List.concat_map (fun x -> x.windows) rounds in
  let per_commit f = med (fun x -> float_of_int (f x) /. float_of_int x.total_commits) in
  let client = List.concat_map (fun x -> x.client) rounds in
  let m = metric r in
  note r "rounds" (string_of_int (List.length rounds));
  note r "windows" (string_of_int (List.length windows));
  note r "window_spread_commits_per_s" (Printf.sprintf "%.4f" (spread windows));
  note r "windows_commits_per_s"
    (String.concat " " (List.map (Printf.sprintf "%.0f") (List.rev windows)));
  note r "client_samples" (string_of_int (List.length client));
  (* End to end. *)
  m "commits_per_s" "1/s" (best_rate windows);
  m "recovery_ms" "ms" (best_time (List.concat_map (fun x -> x.recoveries) rounds) *. 1e3);
  m "alloc_bytes_per_commit" "B"
    (med (fun x -> x.gcd.alloc_words *. word_bytes /. float_of_int x.load_commits));
  m "setup_s" "s" (best_time (List.map (fun x -> x.setup) rounds));
  (* Per layer. *)
  m "client.commit_p50_us" "us" (pct client 50.0 *. 1e6);
  m "client.commit_p90_us" "us" (pct client 90.0 *. 1e6);
  m "client.commit_p99_us" "us" (pct client 99.0 *. 1e6);
  m "client.samples" "count" (float_of_int (List.length client));
  m "walfile.bytes_per_commit" "B" (per_commit (fun x -> x.file_bytes));
  m "net.messages_per_commit" "count" (per_commit (fun x -> x.messages));
  m "site.aborts_per_commit" "count" (per_commit (fun x -> x.aborts));
  m "vm.created_per_commit" "count" (per_commit (fun x -> x.vm_created));
  m "vm.retransmits_per_commit" "count" (per_commit (fun x -> x.vm_retx));
  m "vm.duplicates_per_commit" "count" (per_commit (fun x -> x.vm_dups));
  m "wal.records_per_commit" "count" (per_commit (fun x -> x.wal_records));
  m "wal.forces_per_commit" "count" (per_commit (fun x -> x.forces));
  m "walfile.bytes_per_record" "B" (med (fun x -> fratio x.file_bytes x.file_records));
  m "walfile.append_us_per_record" "us"
    (med (fun x -> x.append_s *. 1e6 /. float_of_int x.file_records));
  m "walfile.read_us_per_record" "us"
    (med (fun x -> x.read_s *. 1e6 /. float_of_int x.file_records));
  m "cluster.replayed_records" "count" (med (fun x -> float_of_int x.replayed));
  m "cluster.respawn_rest_ms" "ms"
    (median (List.concat_map (fun x -> x.respawn_rest) rounds) *. 1e3);
  m "cluster.cores_busy" "ratio" (med (fun x -> x.cpu /. x.load_wall));
  m "cluster.stats_ms" "ms" (med (fun x -> x.stats_s) *. 1e3);
  m "mailbox.exec_rtt_idle_us" "us" (median (List.concat_map (fun x -> x.idle_rtt) rounds) *. 1e6);
  (* The open-loop client's figures: wall-transfer only. *)
  if kind = Transfer then begin
    m "client.late_p50_us" "us" (median (List.concat_map (fun x -> x.late) rounds) *. 1e6);
    m "mailbox.depth_p99" "count"
      (pct (List.concat_map (fun x -> List.map float_of_int x.depth) rounds) 99.0)
  end;
  m "trace.events_per_commit" "count" (per_commit (fun x -> x.trace_events));
  m "trace.emit_ns" "ns" (med (fun x -> x.emit_ns));
  m "trace.emit_bytes" "B" (med (fun x -> x.emit_bytes));
  if trace then begin
    m "report_s" "s" (best_time (List.map (fun x -> x.report) rounds));
    m "trace.merge_ms" "ms" (med (fun x -> x.merge_s) *. 1e3)
  end;
  m "trace.dropped" "count" (med (fun x -> float_of_int x.trace_dropped));
  m "gc.minor_collections_per_kcommit" "count"
    (med (fun x -> float_of_int x.gcd.minor *. 1000.0 /. float_of_int x.load_commits));
  m "gc.promoted_bytes_per_commit" "B"
    (med (fun x -> x.gcd.promoted_words *. word_bytes /. float_of_int x.load_commits));
  m "gc.major_collections" "count" (med (fun x -> float_of_int x.gcd.major));
  match (List.hd rounds).spans with
  | Some sp -> Protocol_spans.report r sp ~unit_s:1e6
  | None -> ()
