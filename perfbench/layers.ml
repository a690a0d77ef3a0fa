(* Per-layer read-outs of a traced round, from the public observability
   surfaces: kprof cycles (Sim.Prof), counters (Sim.Stats), histograms
   (Sim.Hist), the kspan reservoir (Sim.Span) and the ktrace ring
   (Sim.Trace). Counters and cycles are deltas over the measured
   window; histograms are reset when the window opens. *)

(* kprof cycles grouped by layer, by the innermost scope of each folded
   key "ctx;outer;...;inner". A key with no scope is user code, or idle
   for the idle context; per-task contexts fold into their layer. *)
let layer_of_key key =
  match String.split_on_char ';' key with
  | [] | [ _ ] -> if key = "idle/0" then "idle" else "user"
  | frames -> (
    let inner = List.nth frames (List.length frames - 1) in
    let starts p = String.length inner >= String.length p && String.sub inner 0 (String.length p) = p in
    match inner with
    | "net" | "ext2" | "blk" | "jbd" | "softirq" | "pgfault" -> inner
    | _ -> if starts "syscall." then "syscall" else if starts "irq" then "irq" else "other")

(* The syscall a folded key runs under, if any: cycles of nested layers
   (net inside sendfile, ext2 inside pread) count toward it. *)
let syscall_of_key key =
  List.find_map
    (fun f ->
      if String.length f > 8 && String.sub f 0 8 = "syscall." then
        Some (String.sub f 8 (String.length f - 8))
      else None)
    (String.split_on_char ';' key)

type snapshot = {
  counters : (string * int) list;
  folded : (string * int64) list;
  trace_total : int;
  trace_dropped : int;
}

let snapshot () =
  {
    counters = Sim.Stats.counters ();
    folded = Sim.Prof.folded ();
    trace_total = Sim.Trace.total ();
    trace_dropped = Sim.Trace.dropped ();
  }

let stat_delta s0 s1 name =
  let count l = Option.value ~default:0 (List.assoc_opt name l) in
  count s1.counters - count s0.counters

(* Syscalls whose inclusive cycles per op are reported under a fixed
   name on every workload (0 where unused): the union of the top five
   of each workload. *)
let tracked_syscalls =
  [ "read"; "write"; "open"; "sendfile"; "accept4"; "epoll_wait"; "pread64"; "pwrite64"; "fsync" ]

let wait_labels =
  [ ("wait.sched_delay_us", "sched.delay"); ("wait.blocked_us", "blocked");
    ("wait.blk_queue_us", "blk.queue"); ("wait.blk_service_us", "blk.service");
    ("wait.net_service_us", "net.service"); ("wait.jbd_commit_us", "jbd.commit") ]

type metric = { name : string; value : float; unit_ : string; base : string }

type input = {
  ops : int; (* measured ops *)
  puts : int; (* fs_journal puts among them *)
  mb : float; (* verified payload MB *)
  s0 : snapshot;
  s1 : snapshot;
}

(* Cycles per layer and per syscall over the window, plus the window's
   total; conservation makes the layers sum to the total. *)
let cycles inp =
  let d =
    List.map
      (fun (k, v) -> (k, Int64.sub v (Option.value ~default:0L (List.assoc_opt k inp.s0.folded))))
      inp.s1.folded
  in
  let by_layer = Hashtbl.create 16 and by_call = Hashtbl.create 32 in
  let bump tbl k v = Hashtbl.replace tbl k (Int64.add v (Option.value ~default:0L (Hashtbl.find_opt tbl k))) in
  List.iter
    (fun (key, v) ->
      bump by_layer (layer_of_key key) v;
      Option.iter (fun s -> bump by_call s v) (syscall_of_key key))
    d;
  let total = List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L d in
  (by_layer, by_call, total)

let top_syscalls ?(limit = 5) inp =
  let _, by_call, _ = cycles inp in
  let l = Hashtbl.fold (fun k v acc -> if v > 0L then (k, v) :: acc else acc) by_call [] in
  let l = List.sort (fun (a, x) (b, y) -> if x = y then compare a b else Int64.compare y x) l in
  List.filteri (fun i _ -> i < limit) l

let hist_pct name p =
  match Sim.Hist.find name with Some h -> Option.value ~default:0. (Sim.Hist.percentile h p) | None -> 0.

let hist_count name = match Sim.Hist.find name with Some h -> Sim.Hist.count h | None -> 0

(* Mean critical-path time per label over the dominant class's
   slowest-64 reservoir, in virtual µs. *)
let waits () =
  let tail = match Sim.Span.dominant_class () with Some c -> Sim.Span.tail c | None -> [] in
  let n = List.length tail in
  List.map
    (fun (metric, label) ->
      let sum =
        List.fold_left
          (fun acc i ->
            match List.assoc_opt label i.Sim.Span.i_path with Some c -> Int64.add acc c | None -> acc)
          0L tail
      in
      (metric, Pstats.per ~base:(float_of_int n) (Sim.Clock.to_us sum)))
    wait_labels

let read inp =
  let ops = inp.ops in
  let fops = float_of_int ops in
  let by_layer, by_call, total = cycles inp in
  let cyc l = Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt by_layer l)) in
  let stat = stat_delta inp.s0 inp.s1 in
  let statf n = float_of_int (stat n) in
  let per_op ?(u = "count") name x = { name; value = Pstats.per ~base:fops x; unit_ = u; base = "per op" } in
  let ratio ?(u = "ratio") name ~base_name x base = { name; value = Pstats.per ~base x; unit_ = u; base = base_name } in
  let window_total name x = { name; value = x; unit_ = "count"; base = "window total" } in
  let prefix_sum p =
    List.fold_left
      (fun acc (k, _) -> if String.length k >= String.length p && String.sub k 0 (String.length p) = p then acc + stat k else acc)
      0 inp.s1.counters
  in
  let calls = float_of_int (hist_count "syscall") in
  let waits_ = waits () in
  let commits = statf "jbd.commit" in
  let ra_issued = statf "blk.readahead.issued" in
  let pcpu = statf "buddy.pcpu_hit" +. statf "buddy.pcpu_miss" in
  let kb = inp.mb *. 1e6 /. 1024. in
  [
    per_op ~u:"cycles" "apps.user_cycles_per_op" (cyc "user");
    per_op "syscall.calls_per_op" calls;
    per_op ~u:"cycles" "syscall.cycles_per_op" (cyc "syscall");
  ]
  @ List.map
      (fun s ->
        per_op ~u:"cycles"
          (Printf.sprintf "syscall.%s.cycles_per_op" s)
          (Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt by_call s))))
      tracked_syscalls
  @ [
      per_op ~u:"cycles" "net.cycles_per_op" (cyc "net");
      per_op "net.rx_calls_per_op" (statf "tcp.rx_calls");
      per_op "net.bursts_per_op" (statf "net.burst");
      per_op "net.doorbells_per_op" (statf "net.doorbell");
      per_op "net.irqs_per_op" (statf "net.irq");
      per_op "net.tso_frames_per_op" (statf "virtio_net.tso_frames");
      per_op "net.gro_merged_per_op" (statf "net.gro_merged");
      ratio ~u:"B/KB" "net.bytes_copied_per_kb" ~base_name:"per verified KB" (statf "net.bytes_copied") kb;
      per_op "net.retries_per_op" (float_of_int (prefix_sum "degrade.retried.tcp_"));
      window_total "net.listen_overflows" (statf "tcp.listen_overflow");
      per_op "epoll.waits_per_op" (statf "epoll.wait_calls");
      ratio "epoll.scan_per_wait" ~u:"count" ~base_name:"per epoll_wait" (statf "epoll.scan_work") (statf "epoll.wait_calls");
      per_op "timer.armed_per_op" (statf "timer.armed");
      per_op ~u:"cycles" "fs.ext2_cycles_per_op" (cyc "ext2");
      ratio "fs.readahead_hit_ratio" ~base_name:"hits per readahead issued" (statf "blk.readahead.hit") ra_issued;
      per_op "fs.readahead_miss_per_op" (statf "blk.readahead.miss");
      per_op ~u:"cycles" "jbd.cycles_per_op" (cyc "jbd");
      ratio "jbd.commits_per_put" ~u:"count" ~base_name:"per put" commits (float_of_int inp.puts);
      per_op ~u:"cycles" "blk.cycles_per_op" (cyc "blk");
      per_op "blk.bios_per_op" (float_of_int (hist_count "blk.bio"));
      ratio "blk.merges_per_batch" ~u:"count" ~base_name:"per batch" (statf "blk.merge") (statf "blk.batch");
      ratio "blk.doorbells_per_mb" ~u:"count/MB" ~base_name:"per verified MB" (statf "blk.doorbell") inp.mb;
      ratio "blk.irqs_per_mb" ~u:"count/MB" ~base_name:"per verified MB" (statf "blk.irq") inp.mb;
      ratio "blk.flushes_per_commit" ~u:"count" ~base_name:"per jbd commit" (statf "blk.flush") commits;
      ratio "blk.fua_per_commit" ~u:"count" ~base_name:"per jbd commit" (statf "blk.fua") commits;
      window_total "blk.retries" (statf "degrade.retried.blk_bio");
      per_op ~u:"cycles" "ostd.irq_cycles_per_op" (cyc "irq");
      per_op ~u:"cycles" "ostd.softirq_cycles_per_op" (cyc "softirq");
      ratio "ostd.idle_frac" ~base_name:"of window cycles" (cyc "idle") (Int64.to_float total);
      { name = "ostd.sched_delay_p50_us"; value = hist_pct "sched.delay" 50.; unit_ = "virt_us"; base = "per dispatch" };
      { name = "ostd.sched_delay_p99_us"; value = hist_pct "sched.delay" 99.; unit_ = "virt_us"; base = "per dispatch" };
      ratio "ostd.buddy_pcpu_hit_ratio" ~base_name:"of buddy allocations" (statf "buddy.pcpu_hit") pcpu;
    ]
  @ List.map
      (fun (name, v) -> { name; value = v; unit_ = "virt_us"; base = "mean over dominant-class slowest-64" })
      waits_
  @
  let records = float_of_int (inp.s1.trace_total - inp.s0.trace_total) in
  [
    per_op "sim.trace_records_per_op" records;
    ratio "sim.trace_dropped_frac" ~base_name:"of trace records"
      (float_of_int (inp.s1.trace_dropped - inp.s0.trace_dropped))
      records;
  ]
