(* Per-layer figures read from the program's own trace through
   [Obs.Spans]: how often a commit needed remote value, how many requests
   were useful, and how long transactions waited for locks, for remote
   value, and Vm for delivery.  Times are in the substrate's clock:
   simulated on the DES, wall on the domains runtime. *)

open Meter

let report r (sp : Dvp.Obs.Spans.t) ~unit_s =
  let m = metric r in
  let module S = Dvp.Obs.Spans in
  let committed_txns = List.filter (fun (t : S.txn_span) -> t.S.outcome = S.Committed) sp.S.txns in
  let remote =
    List.length (List.filter (fun (t : S.txn_span) -> t.S.requests > 0) committed_txns)
  in
  let requests = List.fold_left (fun acc (t : S.txn_span) -> acc + t.S.requests) 0 sp.S.txns in
  let honored = List.fold_left (fun acc (t : S.txn_span) -> acc + t.S.honored) 0 sp.S.txns in
  let waits f = List.filter_map f sp.S.txns in
  let lock = waits S.lock_wait and req = waits S.request_wait in
  let delivery = List.filter_map S.delivery_delay sp.S.vms in
  m "site.remote_share" "ratio" (fratio remote (List.length committed_txns));
  m "site.request_honored_ratio" "ratio" (fratio honored requests);
  m "site.lock_wait_p50_us" "us" (pct lock 50.0 *. unit_s);
  m "site.lock_wait_p99_us" "us" (pct lock 99.0 *. unit_s);
  m "site.request_wait_p50_us" "us" (pct req 50.0 *. unit_s);
  m "site.request_wait_p99_us" "us" (pct req 99.0 *. unit_s);
  m "vm.delivery_p50_us" "us" (pct delivery 50.0 *. unit_s);
  m "vm.delivery_p99_us" "us" (pct delivery 99.0 *. unit_s);
  m "trace.spans_complete" "bool" (if sp.S.complete then 1.0 else 0.0)
