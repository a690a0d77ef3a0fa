let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let test_clock_charge () =
  Sim.Clock.reset ();
  Sim.Clock.charge 100;
  Sim.Clock.charge 50;
  check_int "sum" 150 (Sim.Time.now ());
  check "to_us" true (abs_float (Sim.Time.to_us 3000 -. 1.0) < 1e-9);
  check_int "us" 3000 (Sim.Time.of_us 1.0)

let test_clock_advance () =
  Sim.Clock.reset ();
  Sim.Clock.advance_to 500;
  Sim.Clock.advance_to 200;
  check_int "monotone" 500 (Sim.Time.now ())

let test_clock_negative_charge () =
  Alcotest.check_raises "negative" (Invalid_argument "Clock.charge: negative cost") (fun () ->
      Sim.Clock.charge (-1))

(* Cycles to nanoseconds is exact integer arithmetic: 3,003 cycles are
   1,001 ns, where a conversion through float microseconds gave 1,000. *)
let test_clock_to_ns () =
  check_int "3003 cycles" 1001 (Sim.Time.to_ns 3003);
  let wrong = ref [] and prev = ref (-1) in
  for c = 0 to 300_000 do
    let ns = Sim.Time.to_ns c in
    if ns <> c * 1000 / 3000 && List.length !wrong < 5 then wrong := c :: !wrong;
    if ns < !prev then wrong := c :: !wrong;
    prev := ns
  done;
  Alcotest.(check (list int)) "floor(c * 1000 / 3000), monotone" [] (List.rev !wrong)

(* Virtual time is a native int, so with every observability plane off
   running the clock allocates nothing: no box per charge, per read or
   per conversion. An int64 clock boxes a value per charge and per
   conversion, 60,000 words in this loop, and a float histogram record
   14 words. The few words allowed cover [Gc.minor_words]'s own float
   results. *)
let test_time_allocates_nothing () =
  Sim.Prof.reset ();
  Sim.Span.disable ();
  Sim.Trace.disable_all ();
  Sim.Clock.reset ();
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Sim.Clock.charge 7;
    acc := !acc + Sim.Time.to_ns (Sim.Time.now ()) + i
  done;
  let words = Gc.minor_words () -. w0 in
  check_int "the loop ran" 70_000 (Sim.Time.now ());
  check (Printf.sprintf "10,000 charges, reads and to_ns allocate %.0f words" words) true
    (words < 16.);
  (* A histogram takes cycles and converts them itself, so recording
     boxes no float either (the first call makes the histogram). *)
  Sim.Hist.reset ();
  Sim.Hist.observe "clock.test" 3000;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Sim.Hist.observe "clock.test" (i * 97)
  done;
  let words = Gc.minor_words () -. w0 in
  check (Printf.sprintf "10,000 Hist.observe allocate %.0f words" words) true (words < 16.);
  check_int "all recorded" 10_001 (Sim.Hist.count (Sim.Hist.named "clock.test"));
  ignore (Sys.opaque_identity !acc)

(* [Clock.now] is the int64 view the repository benchmark reads: the
   same count as [Time.now], across a charge and an event jump. *)
let test_clock_int64_view () =
  Sim.Clock.reset ();
  let same () = Alcotest.(check int64) "view" (Int64.of_int (Sim.Time.now ())) (Sim.Clock.now ()) in
  same ();
  Sim.Clock.charge 1234;
  same ();
  Sim.Clock.advance_to 1_000_000;
  same ();
  check_int "advanced" 1_000_000 (Sim.Time.now ());
  check "to_us view" true (Sim.Clock.to_us (Sim.Clock.now ()) = Sim.Time.to_us (Sim.Time.now ()))

let test_events_order () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let log = ref [] in
  ignore (Sim.Events.schedule_at 300 (fun () -> log := 3 :: !log));
  ignore (Sim.Events.schedule_at 100 (fun () -> log := 1 :: !log));
  ignore (Sim.Events.schedule_at 200 (fun () -> log := 2 :: !log));
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 300 (Sim.Time.now ())

let test_events_same_time_fifo () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Events.schedule_at 50 (fun () -> log := i :: !log))
  done;
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_events_cancel () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let fired = ref false in
  let h = Sim.Events.schedule_at 10 (fun () -> fired := true) in
  Sim.Events.cancel h;
  check_int "pending" 0 (Sim.Events.pending ());
  while Sim.Events.run_next () do
    ()
  done;
  check "not fired" false !fired

(* Regression: cancelling an event that already fired used to count it
   out of [pending] a second time. *)
let test_events_cancel_after_fire () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let h = Sim.Events.schedule_at 10 ignore in
  ignore (Sim.Events.schedule_at 20 ignore);
  ignore (Sim.Events.run_next ());
  Sim.Events.cancel h;
  check_int "pending" 1 (Sim.Events.pending ())

let test_events_run_due () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let fired = ref 0 in
  ignore (Sim.Events.schedule_at 10 (fun () -> incr fired));
  ignore (Sim.Events.schedule_at 99999 (fun () -> incr fired));
  Sim.Clock.advance_to 10;
  check "ran due" true (Sim.Events.run_due ());
  check_int "only the due one" 1 !fired;
  check_int "pending keeps future" 1 (Sim.Events.pending ())

let test_events_cascade () =
  (* An event scheduling another event at the same instant runs it within
     the same run_next call. *)
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let log = ref [] in
  ignore
    (Sim.Events.schedule_at 5 (fun () ->
         log := "a" :: !log;
         ignore (Sim.Events.schedule_after 0 (fun () -> log := "b" :: !log))));
  ignore (Sim.Events.run_next ());
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !log)

let test_stats () =
  Sim.Stats.reset ();
  Sim.Stats.incr "x";
  Sim.Stats.add "x" 4;
  check_int "counter" 5 (Sim.Stats.get "x");
  check_int "missing" 0 (Sim.Stats.get "y")

let test_geomean () =
  check "geomean" true (abs_float (Sim.Stats.geomean [ 2.0; 8.0 ] -. 4.0) < 1e-9);
  check "empty" true (Sim.Stats.geomean [] = 0.)

let test_profile_switch () =
  Sim.Profile.set Sim.Profile.linux;
  Sim.Clock.reset ();
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.boundary_check);
  check_int "no charge" 0 (Sim.Time.now ());
  Sim.Profile.set Sim.Profile.asterinas;
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.boundary_check);
  check_int "charged" 3 (Sim.Time.now ())

let test_profile_variants () =
  check "aster iommu" true Sim.Profile.asterinas.Sim.Profile.iommu;
  check "no-iommu variant" false Sim.Profile.asterinas_no_iommu.Sim.Profile.iommu;
  check "linux has cc" true Sim.Profile.linux.Sim.Profile.tcp_congestion_control;
  check "aster lacks cc" false Sim.Profile.asterinas.Sim.Profile.tcp_congestion_control;
  let unchecked = Sim.Profile.with_safety_checks false Sim.Profile.asterinas in
  check "costs zeroed" true
    (unchecked.Sim.Profile.costs.Sim.Profile.safety.Sim.Profile.boundary_check = 0)

(* The Linux baseline (§6.1) must differ from Asterinas exactly along
   the mechanism axes the paper names: pin that configuration so a
   refactor cannot silently flip a switch. *)
let test_baseline_switches () =
  let l = Sim.Profile.linux and a = Sim.Profile.asterinas in
  check "linux rcu-walks" true l.Sim.Profile.rcu_walk;
  check "asterinas lock-walks" false a.Sim.Profile.rcu_walk;
  (* Both profiles run zero-copy sendfile; the NIC offloads (TSO, GRO,
     checksum) are not profile switches at all. *)
  check "linux sendfile is zero-copy" true l.Sim.Profile.sendfile_zero_copy;
  check "asterinas sendfile is zero-copy" true a.Sim.Profile.sendfile_zero_copy;
  check "linux unix sockets double-copy" true l.Sim.Profile.unix_double_copy;
  check "linux baseline has no IOMMU" false l.Sim.Profile.iommu

let test_baseline_boot () =
  ignore (Aster.Kernel.boot ~profile:Sim.Profile.linux ());
  Apps.Libc.install_child_resolver ();
  let ok = ref false in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"lin-smoke" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/tmp/lin" ~flags:0o101 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd "baseline");
         ignore (Apps.Libc.close c fd);
         let fd = Apps.Libc.openf c "/tmp/lin" ~flags:0 ~mode:0 in
         ok := Apps.Libc.read_str c ~fd ~len:16 = "baseline";
         0));
  Aster.Kernel.run ();
  check "baseline kernel boots and runs user programs" true !ok

let test_baseline_winners () =
  (* RCU-walk makes Linux open(2) faster. Asterinas's loopback TCP win
     comes from its cheaper per-segment send and receive-wakeup costs,
     not from congestion control: a one-segment ping-pong never grows
     a window, and turning Reno off in the linux profile leaves
     lat_tcp unchanged. Both directions, one test. *)
  let open_row = Apps.Lmbench.find "lat_syscall open" in
  let tcp_row = Apps.Lmbench.find "lat_tcp (loopback)" in
  let l = Sim.Profile.linux and a = Sim.Profile.asterinas in
  check "linux wins open(2)" true (open_row.Apps.Lmbench.run l < open_row.Apps.Lmbench.run a);
  check "asterinas wins loopback tcp" true
    (tcp_row.Apps.Lmbench.run a < tcp_row.Apps.Lmbench.run l)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng_int_within_bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

(* The generator's sequence is part of every seeded result (the fault
   plane, speedtest1, workload keys), so it is pinned: the MD5 of the
   first 1,000 raw values, one decimal per line, for two seeds. Drawing
   an int or a bool boxes nothing; an int64 state field boxed 6 words
   per draw. The few words allowed cover [Gc.minor_words]'s own float
   results. *)
let test_rng_pinned_and_unboxed () =
  let digest seed =
    let r = Sim.Rng.create seed in
    let b = Buffer.create 20_000 in
    for _ = 1 to 1000 do
      Buffer.add_string b (Int64.to_string (Sim.Rng.next r));
      Buffer.add_char b '\n'
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string) "seed 42" "fdb153cc276140ed15f7d0f4fc4a28a8" (digest 42L);
  Alcotest.(check string) "seed 1009" "8a815e6ef1c5382ccff7c6a3d8698c59" (digest 1009L);
  let r = Sim.Rng.create 7L in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Sim.Rng.int r 100 + Bool.to_int (Sim.Rng.bool r)
  done;
  let words = Gc.minor_words () -. w0 in
  check (Printf.sprintf "10,000 int and bool draws allocate %.0f words" words) true (words < 16.);
  ignore (Sys.opaque_identity !acc)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng_deterministic" ~count:100 QCheck.int64 (fun seed ->
      let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
      List.for_all
        (fun _ -> Sim.Rng.next a = Sim.Rng.next b)
        [ 1; 2; 3; 4; 5 ])

(* Random schedules, cancels (of live, fired or cancelled events alike)
   and steps, against a sorted-list oracle: uncancelled events fire
   exactly once, in (time, seq) order, and [pending] is exact after
   every operation. An op is (kind, arg): kinds 0-2 schedule at time
   [arg], 3 cancels the [arg mod n]-th event scheduled so far, 4 steps
   with [run_next]. *)
let prop_events_fire_in_order =
  QCheck.Test.make ~name:"events_fire_in_time_order" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 80) (pair (int_range 0 4) (int_range 0 10000)))
    (fun ops ->
      Sim.Clock.reset ();
      Sim.Events.clear ();
      let handles = Hashtbl.create 64 in
      let fired = ref [] and expected = ref [] in
      (* Oracle: live (time, id) pairs, sorted; ids count up with
         scheduling order, so they break ties as seq does. *)
      let live = ref [] and now = ref 0 in
      let oracle_fire () =
        match !live with
        | (t, id) :: rest ->
          live := rest;
          now := max !now t;
          expected := id :: !expected
        | [] -> ()
      in
      let rec oracle_run_due () =
        match !live with
        | (t, _) :: _ when t <= !now ->
          oracle_fire ();
          oracle_run_due ()
        | _ -> ()
      in
      let oracle_run_next () =
        oracle_fire ();
        oracle_run_due ()
      in
      let exact = ref true in
      List.iter
        (fun (kind, arg) ->
          let n = Hashtbl.length handles in
          (if kind <= 2 then begin
             Hashtbl.replace handles n
               (Sim.Events.schedule_at arg (fun () -> fired := n :: !fired));
             live := List.merge compare [ (arg, n) ] !live
           end
           else if kind = 3 then begin
             if n > 0 then begin
               let id = arg mod n in
               Sim.Events.cancel (Hashtbl.find handles id);
               live := List.filter (fun (_, i) -> i <> id) !live
             end
           end
           else begin
             ignore (Sim.Events.run_next ());
             oracle_run_next ()
           end);
          if Sim.Events.pending () <> List.length !live then exact := false)
        ops;
      while Sim.Events.run_next () do
        ()
      done;
      while !live <> [] do
        oracle_run_next ()
      done;
      !exact && Sim.Events.pending () = 0 && !fired = !expected)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle_preserves_elements" ~count:200
    QCheck.(pair int64 (list small_int))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      Sim.Rng.shuffle (Sim.Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let () =
  Alcotest.run "sim"
    [
      ( "clock",
        [
          Alcotest.test_case "charge" `Quick test_clock_charge;
          Alcotest.test_case "advance_monotone" `Quick test_clock_advance;
          Alcotest.test_case "negative_charge" `Quick test_clock_negative_charge;
          Alcotest.test_case "to_ns_exact" `Quick test_clock_to_ns;
          Alcotest.test_case "allocates_nothing" `Quick test_time_allocates_nothing;
          Alcotest.test_case "int64_view" `Quick test_clock_int64_view;
        ] );
      ( "events",
        [
          Alcotest.test_case "order" `Quick test_events_order;
          Alcotest.test_case "fifo_ties" `Quick test_events_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_events_cancel;
          Alcotest.test_case "cancel_after_fire" `Quick test_events_cancel_after_fire;
          Alcotest.test_case "run_due" `Quick test_events_run_due;
          Alcotest.test_case "cascade" `Quick test_events_cascade;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "profile",
        [
          Alcotest.test_case "switch" `Quick test_profile_switch;
          Alcotest.test_case "variants" `Quick test_profile_variants;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "profile_switches" `Quick test_baseline_switches;
          Alcotest.test_case "boot" `Quick test_baseline_boot;
          Alcotest.test_case "expected_winners" `Quick test_baseline_winners;
        ] );
      ("rng", [ Alcotest.test_case "pinned_and_unboxed" `Quick test_rng_pinned_and_unboxed ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rng_bounds;
            prop_rng_deterministic;
            prop_events_fire_in_order;
            prop_shuffle_is_permutation;
          ] );
    ]
