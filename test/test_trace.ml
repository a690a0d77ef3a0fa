(* ktrace tests: ring-buffer overflow semantics, default-off zero cost,
   histogram percentile accuracy, and same-seed trace determinism under
   the chaos fault schedule. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let fresh () =
  Sim.Trace.reset ();
  Sim.Hist.reset ()

(* A tracepoint whose records render as [args]. *)
let point cat name args = Sim.Trace.point cat name [||] (fun _ -> args)

(* --- Ring buffer --- *)

let test_ring_overflow_keeps_newest () =
  fresh ();
  Sim.Trace.set_capacity 16;
  Sim.Trace.enable Sim.Trace.Syscall;
  let ev =
    Sim.Trace.point Sim.Trace.Syscall "ev" [| "i" |] (fun f -> string_of_int f.Sim.Trace.a)
  in
  for i = 1 to 100 do
    Sim.Trace.emit1 ev i
  done;
  check_int "ring holds capacity" 16 (Sim.Trace.length ());
  check_int "drops counted" 84 (Sim.Trace.dropped ());
  check_int "total counts everything" 100 (Sim.Trace.total ());
  let args = List.map (fun r -> r.Sim.Trace.args) (Sim.Trace.records ()) in
  Alcotest.(check (list string))
    "newest 16 survive, in order"
    (List.init 16 (fun i -> string_of_int (85 + i)))
    args

let test_default_off_zero_entries () =
  fresh ();
  let evaluated = ref false in
  (* All categories default-off after reset: no record, and the
     renderer must never run. *)
  List.iter
    (fun cat ->
      Sim.Trace.emit0
        (Sim.Trace.point cat "ev" [||] (fun _ ->
             evaluated := true;
             "boom")))
    Sim.Trace.all_categories;
  check_int "no entries with everything disabled" 0 (Sim.Trace.length ());
  check_int "nothing dropped either" 0 (Sim.Trace.dropped ());
  check "args thunk never evaluated" false !evaluated

let test_mask_is_per_category () =
  fresh ();
  Sim.Trace.enable Sim.Trace.Blk;
  Sim.Trace.emit0 (point Sim.Trace.Blk "on" "");
  Sim.Trace.emit0 (point Sim.Trace.Net "off" "");
  check_int "only the enabled category records" 1 (Sim.Trace.length ());
  Sim.Trace.disable Sim.Trace.Blk;
  Sim.Trace.emit0 (point Sim.Trace.Blk "now-off" "");
  check_int "disable stops recording" 1 (Sim.Trace.length ())

let test_clear_keeps_mask_reset_clears_it () =
  fresh ();
  Sim.Trace.enable Sim.Trace.Irq;
  Sim.Trace.emit0 (point Sim.Trace.Irq "ev" "");
  Sim.Trace.clear ();
  check_int "clear empties the ring" 0 (Sim.Trace.length ());
  check "clear keeps the mask" true (Sim.Trace.enabled Sim.Trace.Irq);
  Sim.Trace.reset ();
  check "reset disables everything" false (Sim.Trace.enabled Sim.Trace.Irq)

(* --- Task column and span tag: kprof's context and kspan's span ---

   ktrace has no providers of its own: a record names kprof's current
   context and carries the span live on it. *)

let test_records_name_prof_context () =
  fresh ();
  Sim.Prof.reset ();
  Sim.Trace.enable Sim.Trace.Sched;
  let ev = point Sim.Trace.Sched "ev" "x" in
  let emit () = Sim.Trace.emit0 ev in
  emit ();
  Sim.Prof.switch_to ~tid:7 ~comm:"worker";
  emit ();
  Sim.Span.enable ();
  let id = Sim.Span.begin_ ~cls:"unit" ~name:"req" in
  emit ();
  Sim.Span.end_ id;
  emit ();
  Sim.Prof.switch_idle ();
  emit ();
  Sim.Span.disable ();
  Sim.Span.clear ();
  Sim.Prof.reset ();
  let got = List.map (fun r -> (r.Sim.Trace.task, r.Sim.Trace.args)) (Sim.Trace.records ()) in
  Sim.Trace.reset ();
  check "a span was opened" true (id > 0);
  Alcotest.(check (list (pair string string)))
    "task column and span tag"
    [
      ("idle/0", "x");
      ("worker/7", "x");
      ("worker/7", Printf.sprintf "x span=%d" id);
      ("worker/7", "x");
      ("idle/0", "x");
    ]
    got

let test_switch_names_incoming_task () =
  (* kprof switches to the incoming task before the switch is charged,
     so the sched:switch record already names it. *)
  fresh ();
  Sim.Trace.enable Sim.Trace.Sched;
  ignore (Aster.Kernel.boot ~profile:Sim.Profile.asterinas ());
  let t = Ostd.Task.spawn ~name:"incoming" (fun () -> Sim.Clock.charge 10) in
  Aster.Kernel.run ();
  let me = Printf.sprintf "incoming/%d" (Ostd.Task.tid t) in
  let switches =
    List.filter
      (fun r ->
        r.Sim.Trace.name = "switch" && String.ends_with ~suffix:("next=" ^ me) r.Sim.Trace.args)
      (Sim.Trace.records ())
  in
  Sim.Trace.reset ();
  check_int "one switch into the task" 1 (List.length switches);
  List.iter (fun r -> Alcotest.(check string) "task column" me r.Sim.Trace.task) switches

(* --- Format on read ---

   Records are rendered when the ring is read, from the fields stored at
   emission. Rendering the same ring twice, with the machine running in
   between (clients and server workers exit, packet buffers are reused,
   the clock moves on) but every category off, must give the same bytes:
   nothing a record renders may depend on state that changes after it
   was emitted. *)

let test_render_depends_only_on_stored_fields () =
  Sim.Trace.reset ();
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  let n = 100 in
  Apps.Mini_nginx.spawn ~requests:(2 * n) ~sizes:[ ("f4k", 4096) ] ();
  let first = ref "" and recorded = ref 0 and second_done = ref false in
  Apps.Ab.run ~host ~path:"/f4k" ~concurrency:8 ~requests:n ~on_done:(fun _ ->
      first := Sim.Trace.render ();
      recorded := Sim.Trace.total ();
      Sim.Trace.disable_all ();
      Apps.Ab.run ~host ~path:"/f4k" ~concurrency:8 ~requests:n ~on_done:(fun _ ->
          second_done := true));
  Apps.Runner.run ();
  let second = Sim.Trace.render () in
  let recorded_after = Sim.Trace.total () in
  Sim.Trace.reset ();
  check "the traced stretch recorded" true (!recorded > 0);
  check "the untraced stretch ran" true !second_done;
  check_int "nothing recorded with every category off" !recorded recorded_after;
  check "both renders are byte-equal" true (String.equal !first second)

(* --- Histograms --- *)

let test_hist_constant_exact () =
  let h = Sim.Hist.create () in
  for _ = 1 to 1000 do
    Sim.Hist.record h 42.5
  done;
  List.iter
    (fun p ->
      check_float (Printf.sprintf "p%.0f exact on constant" p) 42.5 (Sim.Hist.percentile_exn h p))
    [ 1.; 50.; 90.; 99.; 100. ];
  check_float "max exact" 42.5 (Sim.Hist.max_value h);
  check_float "mean exact" 42.5 (Sim.Hist.mean h)

let test_hist_two_point_exact () =
  (* 90 low + 10 high: p50 must report the low value, p99 the high one.
     Exact because each cluster occupies its own bucket. *)
  let h = Sim.Hist.create () in
  for _ = 1 to 90 do
    Sim.Hist.record h 1.0
  done;
  for _ = 1 to 10 do
    Sim.Hist.record h 1000.
  done;
  check_float "p50 is the low point" 1.0 (Sim.Hist.percentile_exn h 50.);
  check_float "p90 is the low point" 1.0 (Sim.Hist.percentile_exn h 90.);
  check_float "p99 is the high point" 1000. (Sim.Hist.percentile_exn h 99.);
  check_float "p100 is the max" 1000. (Sim.Hist.percentile_exn h 100.)

let test_hist_uniform_bounded_error () =
  (* Uniform 1..10000: every percentile estimate must fall within one
     sub-bucket (1/16 octave, < 4.4% relative) of the true value. *)
  let h = Sim.Hist.create () in
  let n = 10000 in
  for i = 1 to n do
    Sim.Hist.record h (float_of_int i)
  done;
  List.iter
    (fun p ->
      let true_v = p /. 100. *. float_of_int n in
      let est = Sim.Hist.percentile_exn h p in
      let rel = abs_float (est -. true_v) /. true_v in
      if rel > 1. /. 16. then
        Alcotest.failf "p%.0f: estimate %.1f vs true %.1f (rel err %.3f > 1/16)" p est true_v rel)
    [ 10.; 25.; 50.; 75.; 90.; 99. ];
  check_float "count" (float_of_int n) (float_of_int (Sim.Hist.count h))

(* [Hist] reads a value's bucket from its float bits instead of calling
   [Float.frexp]. Two values share a bucket exactly when the p50 of the
   pair is their mean, so pairs straddling every sub-bucket edge, and
   neighbouring cycle counts as microseconds, must split where the
   frexp reference splits them. Values of 2^48 µs and more go to the
   overflow bucket (frexp exponent 49 once indexed past the array). *)
let test_hist_buckets_match_frexp () =
  let frexp_bucket v =
    if v <= 0. then 0
    else begin
      let m, e = Float.frexp v in
      if e < -15 then 0
      else if e >= 49 then 1 + (64 * 16)
      else 1 + ((e + 15) * 16) + min (int_of_float ((m -. 0.5) *. 2. *. 16.)) 15
    end
  in
  let wrong = ref [] in
  let pair a b =
    let h = Sim.Hist.create () in
    Sim.Hist.record h a;
    Sim.Hist.record h b;
    let want = if frexp_bucket a = frexp_bucket b then (a +. b) /. 2. else a in
    if Sim.Hist.percentile_exn h 50. <> want && List.length !wrong < 5 then
      wrong := Printf.sprintf "%h,%h" a b :: !wrong
  in
  for e = -17 to 51 do
    for sub = 0 to 15 do
      let edge = Float.ldexp (0.5 +. (float_of_int sub /. 32.)) e in
      pair (Float.pred edge) edge;
      pair edge (Float.succ edge)
    done
  done;
  let h = Sim.Hist.create () in
  Sim.Hist.record_time h 3000;
  check_float "record_time keeps microseconds" 1.0 (Sim.Hist.percentile_exn h 50.);
  for c = 1 to 4000 do
    pair (Sim.Time.to_us (7 * c)) (Sim.Time.to_us ((7 * c) + 1))
  done;
  Alcotest.(check (list string)) "buckets split where frexp splits them" [] (List.rev !wrong)

let test_hist_registry () =
  fresh ();
  Sim.Hist.observe "syscall.read" 3000;
  Sim.Hist.observe "syscall.read" 6000;
  Sim.Hist.observe "syscall.write" 15000;
  Sim.Hist.observe "blk.bio" 21000;
  check_int "find sees both observations" 2
    (match Sim.Hist.find "syscall.read" with Some h -> Sim.Hist.count h | None -> -1);
  check_int "by_prefix filters" 2 (List.length (Sim.Hist.by_prefix "syscall."));
  check_int "all is everything" 3 (List.length (Sim.Hist.all ()));
  Sim.Hist.reset ();
  check "reset empties the registry" true (Sim.Hist.all () = [])

(* --- Determinism: same-seed chaos runs yield byte-identical traces --- *)

let chaos_trace seed =
  Sim.Trace.reset ();
  Sim.Trace.set_capacity 4096;
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  let o = Apps.Chaos.run ~seed () in
  let trace = Sim.Trace.render () in
  let drops = Sim.Trace.dropped () in
  Sim.Trace.reset ();
  (o.Apps.Chaos.completed, trace, drops)

let test_same_seed_identical_traces () =
  let c1, t1, d1 = chaos_trace 7L in
  let c2, t2, d2 = chaos_trace 7L in
  check "trace is non-empty" true (String.length t1 > 0);
  check_int "same workload outcome" c1 c2;
  check_int "same drop count" d1 d2;
  check "byte-identical traces" true (String.equal t1 t2)

let test_traced_run_same_virtual_time () =
  (* Tracing must not charge virtual cycles: the same chaos run, traced
     and untraced, finishes at the same virtual timestamp. *)
  Sim.Trace.reset ();
  ignore (Apps.Chaos.run ~seed:11L ());
  let untraced_end = Sim.Time.now () in
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  ignore (Apps.Chaos.run ~seed:11L ());
  let traced_end = Sim.Time.now () in
  let traced_total = Sim.Trace.total () in
  Sim.Trace.reset ();
  check_int "tracing is free in virtual time" untraced_end traced_end;
  check "and the trace actually recorded" true (traced_total > 0)

(* --- Batched TX: one tracepoint per burst, and tracing stays free ---

   The plug/flush pipeline emits its Net "tx" record at flush time with
   burst-shaped args ("nseg=... bytes=..."), so a traced transfer shows
   one record per descriptor chain — not one per segment. The per-burst
   count must agree exactly with the net.burst stat, and enabling the
   tracepoints must not move the virtual clock. *)

let bw_tcp_row () = Apps.Lmbench.find "bw_tcp 64k (virtio)"

let is_tx_burst r =
  r.Sim.Trace.cat = Sim.Trace.Net
  && String.equal r.Sim.Trace.name "tx"
  && String.length r.Sim.Trace.args >= 5
  && String.equal (String.sub r.Sim.Trace.args 0 5) "nseg="

let test_net_tx_trace_once_per_burst () =
  Sim.Trace.reset ();
  Sim.Trace.set_capacity 262144;
  Sim.Trace.enable Sim.Trace.Net;
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let tx_burst_recs = List.length (List.filter is_tx_burst (Sim.Trace.records ())) in
  let bursts = Sim.Stats.get "net.burst" in
  let queued = Sim.Stats.get "net.tx_queued" in
  let drops = Sim.Trace.dropped () in
  Sim.Trace.reset ();
  check_int "nothing fell out of the ring" 0 drops;
  check "bursts were submitted" true (bursts > 0);
  check_int "exactly one tx tracepoint per burst" bursts tx_burst_recs;
  check "bursts amortise the queued segments" true (bursts < queued)

let test_net_traced_run_same_virtual_time () =
  Sim.Trace.reset ();
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let untraced_end = Sim.Time.now () in
  Sim.Trace.set_capacity 262144;
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let traced_end = Sim.Time.now () in
  let total = Sim.Trace.total () in
  Sim.Trace.reset ();
  check_int "tracing the batched pipeline is free in virtual time" untraced_end traced_end;
  check "and the trace actually recorded" true (total > 0)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow_keeps_newest" `Quick test_ring_overflow_keeps_newest;
          Alcotest.test_case "default_off_zero_entries" `Quick test_default_off_zero_entries;
          Alcotest.test_case "mask_per_category" `Quick test_mask_is_per_category;
          Alcotest.test_case "clear_vs_reset" `Quick test_clear_keeps_mask_reset_clears_it;
        ] );
      ( "context",
        [
          Alcotest.test_case "records_name_prof_context" `Quick test_records_name_prof_context;
          Alcotest.test_case "switch_names_incoming_task" `Quick test_switch_names_incoming_task;
          Alcotest.test_case "render_depends_only_on_stored_fields" `Quick
            test_render_depends_only_on_stored_fields;
        ] );
      ( "hist",
        [
          Alcotest.test_case "constant_exact" `Quick test_hist_constant_exact;
          Alcotest.test_case "two_point_exact" `Quick test_hist_two_point_exact;
          Alcotest.test_case "uniform_bounded_error" `Quick test_hist_uniform_bounded_error;
          Alcotest.test_case "registry" `Quick test_hist_registry;
          Alcotest.test_case "buckets_match_frexp" `Quick test_hist_buckets_match_frexp;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same_seed_identical_traces" `Quick test_same_seed_identical_traces;
          Alcotest.test_case "traced_run_same_virtual_time" `Quick
            test_traced_run_same_virtual_time;
        ] );
      ( "net-batch",
        [
          Alcotest.test_case "tx_trace_once_per_burst" `Quick test_net_tx_trace_once_per_burst;
          Alcotest.test_case "traced_bw_tcp_same_virtual_time" `Quick
            test_net_traced_run_same_virtual_time;
        ] );
    ]
