(* Measurement plumbing shared by the workloads: the benchmark's own spans
   around its calls into the program, order statistics, process counters
   read from outside the program, and the metric record a run prints. *)

(* Seconds on the monotonic clock, with nanosecond resolution
   (gettimeofday's microsecond steps are coarse next to a ~30 us request). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------ spans *)

(* A span covers one call the benchmark makes into a layer.  Spans nest on
   the main thread only (the site domains are the program's own), so a
   stack of open span ids gives each span its parent.  They stay in memory
   until the run writes them out. *)
type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  name : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let closed : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      closed := { id; parent; name; t0; t1 } :: !closed
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Every span name the benchmark records, with the layer it belongs to, in
   report order.  A run prints a self-time metric for each call into the
   program it made; [bench.round] is the benchmark's own round and only
   groups the calls in the span file. *)
let span_names =
  [
    ("bench.round", "bench");
    ("System.create", "system");
    ("System.exec", "system");
    ("System.run_until", "engine");
    ("System.metrics", "obs");
    ("System.conserved_all", "system");
    ("System.recover_site", "site");
    ("Cluster.create", "cluster");
    ("Cluster.run_load", "cluster");
    ("Cluster.start_bg_load", "cluster");
    ("Cluster.exec", "mailbox");
    ("Cluster.quiesce", "cluster");
    ("Cluster.stats", "cluster");
    ("Cluster.conserved_all", "cluster");
    ("Cluster.trace_jsonl", "trace");
    ("Cluster.kill_site", "cluster");
    ("Cluster.respawn_site", "cluster");
    ("Cluster.stop", "cluster");
    ("Walfile.read", "walfile");
    ("Walfile.append", "walfile");
    ("Log_replay.views", "site");
    ("Shards.merged_events", "trace");
    ("Trace.emit", "trace");
    ("Spans.of_events", "obs");
  ]

type self_row = { sname : string; slayer : string; calls : int; total : float; self : float }

(* Self time: a span's duration minus the part of it its children cover.
   Children of one span never overlap (one thread), so subtracting their
   summed durations is exact. *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.0) +. (s.t1 -. s.t0)))
    !closed;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. (try Hashtbl.find child_time s.id with Not_found -> 0.0) in
      let calls, total, selfs =
        try Hashtbl.find rows s.name with Not_found -> (0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name (calls + 1, total +. d, selfs +. self))
    !closed;
  List.map
    (fun (sname, slayer) ->
      let calls, total, self = try Hashtbl.find rows sname with Not_found -> (0, 0.0, 0.0) in
      { sname; slayer; calls; total; self })
    span_names

let write_spans path =
  let oc = open_out path in
  let t_origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !closed in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
        s.id s.parent s.name (List.assoc s.name span_names)
        ((s.t0 -. t_origin) *. 1e6)
        ((s.t1 -. t_origin) *. 1e6))
    (List.rev !closed);
  close_out oc

(* ------------------------------------------------------------ statistics *)

(* Percentiles come from the program's own exact sample store (rank with
   linear interpolation); 0 for no samples, as for a layer a run did not
   exercise. *)
let pct l p =
  if l = [] then 0.0
  else begin
    let s = Dvp.Util.Dstats.Sample.create () in
    List.iter (Dvp.Util.Dstats.Sample.add s) l;
    Dvp.Util.Dstats.Sample.percentile s p
  end

let median l = pct l 50.0

(* The host's speed changes in phases of seconds (a fixed CPU loop here
   alternates between two speeds about 50 % apart), and that noise only
   ever slows a sample down.  A timing is therefore the better quartile of
   the run's samples: it follows the program's speed in the host's faster
   phases, holds still while a slow phase covers up to three quarters of
   the run, and is less exposed to a single lucky sample than the best. *)
let best_time l = pct l 25.0
let best_rate l = pct l 75.0

(* For samples of identical work, where only the host can make one slower
   than another. *)
let fastest l = List.fold_left Float.min infinity l

(* Interquartile distance as a share of the median, as Python's
   statistics.quantiles(n=4) (exclusive method) computes the quartiles. *)
let spread l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let q p =
      let m = float_of_int (n + 1) *. p in
      let j = truncate m in
      let j = max 1 (min (n - 1) j) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))
    in
    let med = median l in
    if med = 0.0 then 0.0 else (q 0.75 -. q 0.25) /. med

let fratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------ process *)

(* Peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun k -> k) with
      | Some k -> k
      | None -> scan ())
  in
  let k = scan () in
  close_in ic;
  float_of_int k /. 1024.0

(* CPU seconds of the whole process: every domain and the main thread. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* GC counters.  [Gc.quick_stat] sums every domain's counters as of their
   last minor collection, unlike [Gc.allocated_bytes], which counts only
   the calling domain. *)
type gc = { alloc_words : float; minor : int; major : int; promoted_words : float }

let gc () =
  let s = Gc.quick_stat () in
  {
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    promoted_words = s.Gc.promoted_words;
  }

let gc_diff a b =
  {
    alloc_words = b.alloc_words -. a.alloc_words;
    minor = b.minor - a.minor;
    major = b.major - a.major;
    promoted_words = b.promoted_words -. a.promoted_words;
  }

let word_bytes = float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------ results *)

(* What one run hands back: failures of the outside-in checks, operation
   counts, and every metric by name with its unit. *)
type result = {
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable notes : (string * string) list;  (** reversed *)
}

let result () = { failures = []; attempted = 0; failed = 0; metrics = []; notes = [] }

let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then r.failures <- msg :: r.failures) fmt

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics
let note r k v = r.notes <- (k, v) :: r.notes
