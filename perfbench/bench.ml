(* The benchmark's program: runs one workload for about --seconds seconds
   of whole rounds, checks the results against the benchmark's own ledger
   and the sites' durable logs, and prints every metric with its unit.

   bench.exe --workload des-flow|wall-escrow|wall-transfer --seed N
             --seconds S --trace 0|1 [--out DIR]

   The last line of standard output is one JSON object: the checks'
   verdict, the operation counts, every metric and the run's notes.  With
   --trace 1 the benchmark also records a span around every call it makes
   into the program, writes them to DIR, and prints each span's self
   time.  The exit code is 1 when any check failed. *)

let workloads = [ "des-flow"; "wall-escrow"; "wall-transfer" ]

(* A fixed pure-OCaml loop, best of three, timed before and after the
   workload: on a shared host it shows which speed phase a run met. *)
let host_loop_ms () =
  let once () =
    let t = Meter.now () in
    let h = Hashtbl.create 4096 in
    for i = 0 to 199_999 do
      Hashtbl.replace h (i land 4095) i
    done;
    (Meter.now () -. t) *. 1e3
  in
  List.fold_left Float.min infinity (List.init 3 (fun _ -> once ()))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref (Filename.concat "perfbench" "_out") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measure whole rounds for about this long");
      ("--trace", Arg.Set_int trace, " 1: traced run (spans, per-layer figures)");
      ("--out", Arg.Set_string out, " directory for WAL files and span dumps");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let traced = !trace = 1 in
  Meter.tracing := traced;
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat !out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o700;
  let r = Meter.result () in
  let g = Gc.get () in
  let loop_before = host_loop_ms () in
  let t_run = Meter.now () in
  (match !workload with
  | "des-flow" -> Des_flow.run r ~seed:!seed ~seconds:!seconds ~trace:traced
  | "wall-escrow" -> Wall.run r Wall.Escrow ~seed:!seed ~seconds:!seconds ~trace:traced ~dir
  | _ -> Wall.run r Wall.Transfer ~seed:!seed ~seconds:!seconds ~trace:traced ~dir);
  let run_s = Meter.now () -. t_run in
  let loop_after = host_loop_ms () in
  Unix.rmdir dir;
  Meter.metric r "peak_rss_mb" "MB" (Meter.peak_rss_mb ());
  let notes =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ( "gc",
        Printf.sprintf "minor_heap_size=%d space_overhead=%d major_heap_increment=%d"
          g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.major_heap_increment );
      ("run_s", Printf.sprintf "%.2f" run_s);
      ("host_loop_ms", Printf.sprintf "%.2f before, %.2f after" loop_before loop_after);
    ]
    @ List.rev r.Meter.notes
  in
  if traced then begin
    let rounds =
      List.length (List.filter (fun s -> s.Meter.name = "bench.round") !Meter.closed)
    in
    let path =
      Filename.concat !out (Printf.sprintf "%s-seed%d-spans.jsonl" !workload !seed)
    in
    Meter.write_spans path;
    Printf.printf "spans written to %s\n" path;
    Printf.printf "%-24s %-8s %8s %12s %12s\n" "span" "layer" "calls" "total_ms" "self_ms";
    (* Self time of each call into the program the workload made; the
       benchmark's own rounds are left out. *)
    List.iter
      (fun (row : Meter.self_row) ->
        if row.slayer <> "bench" && row.calls > 0 then begin
          Printf.printf "%-24s %-8s %8d %12.3f %12.3f\n" row.sname row.slayer row.calls
            (row.total *. 1e3) (row.self *. 1e3);
          Meter.metric r
            (Printf.sprintf "span.%s.self_ms" row.sname)
            "ms"
            (row.self *. 1e3 /. float_of_int (max 1 rounds))
        end)
      (Meter.self_times ())
  end;
  (* The traced run's throughput, beside the untraced run's commits_per_s:
     their difference is the tracing overhead. *)
  if traced then
    List.iter
      (fun (k, v, u) -> if k = "commits_per_s" then Meter.metric r "bench.commits_per_s_traced" u v)
      r.Meter.metrics;
  let metrics = List.rev r.Meter.metrics in
  List.iter (fun (k, v) -> Printf.printf "note %-28s %s\n" k v) notes;
  List.iter (fun (k, v, u) -> Printf.printf "metric %-36s %16.6g %s\n" k v u) metrics;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev r.Meter.failures);
  let correct = r.Meter.failures = [] in
  let module J = Dvp.Util.Json in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int r.Meter.attempted);
            ("failed", J.Int r.Meter.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v, u) -> (k, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
            ("notes", J.Obj (List.map (fun (k, v) -> (k, J.String v)) notes));
          ]));
  exit (if correct then 0 else 1)
