let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let fresh () =
  Sim.Profile.set Sim.Profile.asterinas;
  Kernmiri.Corpus.fresh_boot ()

(* --- Task and scheduling --- *)

let test_spawn_and_run () =
  fresh ();
  let log = ref [] in
  ignore (Ostd.Task.spawn ~name:"a" (fun () -> log := "a" :: !log));
  ignore (Ostd.Task.spawn ~name:"b" (fun () -> log := "b" :: !log));
  Ostd.Task.run ();
  Alcotest.(check (list string)) "fifo order" [ "a"; "b" ] (List.rev !log)

let test_yield_interleaves () =
  fresh ();
  let log = ref [] in
  let body tag () =
    for i = 1 to 3 do
      log := Printf.sprintf "%s%d" tag i :: !log;
      Ostd.Task.yield_now ()
    done
  in
  ignore (Ostd.Task.spawn (body "x"));
  ignore (Ostd.Task.spawn (body "y"));
  Ostd.Task.run ();
  Alcotest.(check (list string))
    "interleaved" [ "x1"; "y1"; "x2"; "y2"; "x3"; "y3" ] (List.rev !log)

let test_wait_queue_wake () =
  fresh ();
  let wq = Ostd.Wait_queue.create () in
  let got = ref 0 in
  ignore
    (Ostd.Task.spawn ~name:"sleeper" (fun () ->
         Ostd.Wait_queue.sleep wq;
         got := 1));
  ignore
    (Ostd.Task.spawn ~name:"waker" (fun () ->
         check_int "one waiter" 1 (Ostd.Wait_queue.waiters wq);
         ignore (Ostd.Wait_queue.wake_one wq)));
  Ostd.Task.run ();
  check_int "woken and finished" 1 !got

let test_sleep_timeout () =
  fresh ();
  let woken = ref None in
  ignore
    (Ostd.Task.spawn (fun () ->
         let wq = Ostd.Wait_queue.create () in
         woken := Some (Ostd.Wait_queue.sleep_timeout wq ~cycles:5000)));
  Ostd.Task.run ();
  check "timed out" true (!woken = Some false);
  check "clock advanced past timeout" true (Sim.Time.now () >= 5000)

let test_task_sleep_advances_clock () =
  fresh ();
  ignore (Ostd.Task.spawn (fun () -> Ostd.Task.sleep_us 100.0));
  Ostd.Task.run ();
  check "virtual time" true (Sim.Time.now () >= Sim.Time.of_us 100.0)

let test_inv8_double_run_panics () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();
  (* A buggy scheduler that never dequeues: pick_next hands out the same
     task even while it is running. The nested dispatch loop then tries
     to run it twice — Inv. 8 must catch this. *)
  let the_task = ref None in
  let module Buggy = struct
    let enqueue t = the_task := Some t

    let pick_next () = !the_task

    let update_curr () = ()

    let dequeue_curr () = ()
  end in
  Ostd.Task.inject_scheduler (module Buggy);
  ignore
    (Ostd.Task.spawn (fun () ->
         (* Re-enter the dispatcher from inside the task: the scheduler
            will offer this very task again. *)
         Ostd.Task.run ()));
  Kernmiri.Corpus.expect_panic (fun () -> Ostd.Task.run ())

let test_kill_prevents_running () =
  fresh ();
  let ran = ref false in
  let t = Ostd.Task.spawn (fun () -> ran := true) in
  Ostd.Task.kill t;
  Ostd.Task.run ();
  check "killed task never ran" false !ran

let test_custom_data () =
  fresh ();
  let module M = struct
    type Ostd.Task.custom += Weight of int
  end in
  let t = Ostd.Task.spawn (fun () -> ()) in
  Ostd.Task.set_custom t (M.Weight 42);
  (match Ostd.Task.custom t with
  | Some (M.Weight 42) -> ()
  | _ -> Alcotest.fail "custom data lost");
  Ostd.Task.run ()

(* --- The hung-task context against an oracle ---

   The sched:switch and sched:wakeup tracepoints carry max_wait_ns,
   the longest any Ready task has waited for the CPU (at a switch, the
   incoming task's own wait counts too). An injected policy records
   each task it is handed with the instant, so its queue is the
   oracle's Ready set, and picks a seeded-random task, so tasks leave
   the Ready set out of the order they entered it. A consumer checks
   every event against the oracle. *)

(* Exact nanoseconds of a cycle count: c * 1000 / 3000 cycles per µs. *)
let ns_of_cycles c = c * 1000 / 3000

type oracle = {
  mutable queued : (Ostd.Task.t * Sim.Time.t) list; (* enqueue order, with the instant *)
  mutable incoming : (Ostd.Task.t * Sim.Time.t) option; (* last pick, its sched-delay total then *)
  mutable events : int;
  mutable reordered : int; (* picks that passed over an older queued task *)
  mutable wrong : string list;
}

let oracle_name = "test.oldest_ready"

let wakeup_point = List.hd (Sim.Trace.find "sched:wakeup")

let switch_point = List.hd (Sim.Trace.find "sched:switch")

(* Boot OSTD under the recording policy; [starved t] keeps [t] queued
   while any other task is. *)
let boot_oracle ~rng ~starved =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  let o = { queued = []; incoming = None; events = 0; reordered = 0; wrong = [] } in
  let module Recording = struct
    let enqueue t = o.queued <- o.queued @ [ (t, Sim.Time.now ()) ]

    let pick_next () =
      let pool =
        match List.filter (fun (t, _) -> not (starved t)) o.queued with [] -> o.queued | l -> l
      in
      match pool with
      | [] -> None
      | _ ->
        let t, _ = List.nth pool (Random.State.int rng (List.length pool)) in
        if t != fst (List.hd o.queued) then o.reordered <- o.reordered + 1;
        o.queued <- List.filter (fun (u, _) -> u != t) o.queued;
        let _, waited, _ = Ostd.Task.sched_delay t in
        o.incoming <- Some (t, waited);
        Some t

    let update_curr () = ()

    let dequeue_curr () = ()
  end in
  Ostd.Task.inject_scheduler (module Recording);
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();
  o

(* The oldest live entry's wait, in ns (0 if none is queued). *)
let oracle_queued o =
  let now = Sim.Time.now () in
  List.fold_left
    (fun acc (t, at) ->
      let d = now - at in
      if Ostd.Task.is_dead t || d <= 0 then acc else max acc (ns_of_cycles d))
    0 o.queued

let with_oracle o f =
  let note what got want =
    o.events <- o.events + 1;
    if got <> want && List.length o.wrong < 10 then
      o.wrong <-
        Printf.sprintf "%s #%d: max_wait_ns %d, oracle %d" what o.events got want :: o.wrong
  in
  Sim.Trace.attach wakeup_point ~name:oracle_name (fun ctx ->
      note "wakeup" ctx.(2) (oracle_queued o));
  Sim.Trace.attach switch_point ~name:oracle_name (fun ctx ->
      match o.incoming with
      | Some (t, before) when Ostd.Task.tid t = ctx.(1) ->
        (* The incoming task's own wait is what dispatch just added to
           its sched-delay total. *)
        let _, after, _ = Ostd.Task.sched_delay t in
        note "switch" ctx.(3) (max (ns_of_cycles (after - before)) (oracle_queued o))
      | _ -> o.wrong <- "switch to a task the policy did not pick" :: o.wrong);
  Fun.protect
    ~finally:(fun () ->
      Sim.Trace.detach wakeup_point ~name:oracle_name;
      Sim.Trace.detach switch_point ~name:oracle_name)
    f

(* Up to 64 tasks each take 60 seeded-random steps: burn cycles, then
   yield, block, wake a blocked task, sleep, kill another task or spawn
   one more. *)
let test_oldest_ready_random seed () =
  let rng = Random.State.make [| seed |] in
  let o = boot_oracle ~rng ~starved:(fun _ -> false) in
  let tasks = ref [] and blocked = ref [] and killed_ready = ref 0 in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let rec body () =
    for _ = 1 to 60 do
      Sim.Clock.charge (Random.State.int rng 20_000);
      match Random.State.int rng 12 with
      | 0 | 1 | 2 -> Ostd.Task.yield_now ()
      | 3 | 4 ->
        (* Block only while another live task could wake this one. *)
        let me = Ostd.Task.current () in
        let waker t = t != me && (not (Ostd.Task.is_dead t)) && not (List.memq t !blocked) in
        if List.exists waker !tasks then begin
          blocked := me :: !blocked;
          Ostd.Task.block ()
        end
        else Ostd.Task.yield_now ()
      | 5 | 6 -> (
        match !blocked with
        | [] -> ()
        | l ->
          let t = pick l in
          blocked := List.filter (( != ) t) l;
          Ostd.Task.wake t)
      | 7 | 8 -> Ostd.Task.sleep_us (float_of_int (Random.State.int rng 200))
      | 9 -> (
        let me = Ostd.Task.current () in
        match List.filter (fun t -> t != me && not (Ostd.Task.is_dead t)) !tasks with
        | [] -> ()
        | l ->
          let t = pick l in
          if List.exists (fun (u, _) -> u == t) o.queued then incr killed_ready;
          Ostd.Task.kill t)
      | _ -> spawn ()
    done;
    List.iter Ostd.Task.wake !blocked;
    blocked := []
  and spawn () =
    if List.length !tasks < 64 then tasks := Ostd.Task.spawn ~name:"r" body :: !tasks
  in
  with_oracle o (fun () ->
      for _ = 1 to 8 do spawn () done;
      Ostd.Task.run ());
  Alcotest.(check (list string)) "max_wait_ns matches the oracle" [] (List.rev o.wrong);
  check "events observed" true (o.events > 500);
  check "dispatch order differed from entry order" true (o.reordered > 50);
  check "Ready tasks were killed" true (!killed_ready > 0)

(* One task stays Ready but is never picked while two others wake each
   other 10,000 times: its wait is the context at every event. *)
let test_oldest_ready_starved () =
  let rng = Random.State.make [| 7 |] in
  let victim = ref None in
  let starved t = match !victim with Some v -> v == t | None -> false in
  let o = boot_oracle ~rng ~starved in
  let wakes = ref 0 and victim_wait = ref 0 in
  let peer = Array.make 2 None in
  let ping i () =
    while !wakes < 10_000 do
      Option.iter
        (fun t ->
          incr wakes;
          Ostd.Task.wake t)
        peer.(1 - i);
      Sim.Clock.charge 1000;
      Ostd.Task.block ()
    done;
    Option.iter Ostd.Task.wake peer.(1 - i)
  in
  with_oracle o (fun () ->
      victim := Some (Ostd.Task.spawn ~name:"starved" (fun () -> ()));
      peer.(0) <- Some (Ostd.Task.spawn ~name:"ping" (ping 0));
      peer.(1) <- Some (Ostd.Task.spawn ~name:"pong" (ping 1));
      (* Under the oracle's name, so it is detached with the oracle. *)
      Sim.Trace.attach switch_point ~name:oracle_name (fun ctx ->
          if ctx.(1) = Ostd.Task.tid (Option.get !victim) then victim_wait := ctx.(3));
      Ostd.Task.run ());
  Alcotest.(check (list string)) "max_wait_ns matches the oracle" [] (List.rev o.wrong);
  check "others woke 10,000 times" true (!wakes >= 10_000 && o.events > 20_000);
  check "the starved task's wait is reported when it finally runs" true
    (!victim_wait >= ns_of_cycles (10_000 * 1000))

(* --- Sync primitives --- *)

let test_spinlock_atomic_mode () =
  fresh ();
  let lock = Ostd.Sync.Spin_lock.create "t" in
  ignore
    (Ostd.Task.spawn (fun () ->
         Ostd.Sync.Spin_lock.with_lock lock (fun () ->
             check "atomic inside" true (Ostd.Atomic_mode.in_atomic ()));
         check "released" false (Ostd.Atomic_mode.in_atomic ())));
  Ostd.Task.run ()

let test_sleep_under_spinlock_panics () =
  fresh ();
  let lock = Ostd.Sync.Spin_lock.create "t" in
  let panicked = ref false in
  ignore
    (Ostd.Task.spawn (fun () ->
         try Ostd.Sync.Spin_lock.with_lock lock (fun () -> Ostd.Task.sleep_us 1.0)
         with Ostd.Panic.Kernel_panic _ -> panicked := true));
  Ostd.Task.run ();
  check "sleep-in-atomic caught" true !panicked

let test_mutex_mutual_exclusion () =
  fresh ();
  let m = Ostd.Sync.Mutex.create "m" in
  let log = ref [] in
  let body tag () =
    Ostd.Sync.Mutex.with_lock m (fun () ->
        log := (tag ^ ":in") :: !log;
        Ostd.Task.sleep_us 10.0;
        log := (tag ^ ":out") :: !log)
  in
  ignore (Ostd.Task.spawn (body "a"));
  ignore (Ostd.Task.spawn (body "b"));
  Ostd.Task.run ();
  Alcotest.(check (list string))
    "critical sections do not overlap"
    [ "a:in"; "a:out"; "b:in"; "b:out" ]
    (List.rev !log)

let test_rwlock_readers_share () =
  fresh ();
  let rw = Ostd.Sync.Rw_lock.create "rw" in
  let concurrent = ref 0 and peak = ref 0 in
  let reader () =
    Ostd.Sync.Rw_lock.with_read rw (fun () ->
        incr concurrent;
        if !concurrent > !peak then peak := !concurrent;
        Ostd.Task.sleep_us 5.0;
        decr concurrent)
  in
  ignore (Ostd.Task.spawn reader);
  ignore (Ostd.Task.spawn reader);
  Ostd.Task.run ();
  check_int "both readers inside together" 2 !peak

let test_rcu_grace_period () =
  fresh ();
  let cell = Ostd.Sync.Rcu.create 1 in
  let order = ref [] in
  ignore
    (Ostd.Task.spawn ~name:"reader" (fun () ->
         Ostd.Sync.Rcu.read cell (fun v ->
             order := Printf.sprintf "read:%d" v :: !order)));
  ignore
    (Ostd.Task.spawn ~name:"updater" (fun () ->
         Ostd.Sync.Rcu.update cell 2;
         Ostd.Sync.Rcu.synchronize ();
         order := "synced" :: !order));
  Ostd.Task.run ();
  check "reader ran" true (List.mem "read:1" !order);
  check "synchronize completed" true (List.mem "synced" !order)

let test_rcu_no_sleep_in_read () =
  fresh ();
  let cell = Ostd.Sync.Rcu.create 0 in
  let panicked = ref false in
  ignore
    (Ostd.Task.spawn (fun () ->
         try Ostd.Sync.Rcu.read cell (fun _ -> Ostd.Task.sleep_us 1.0)
         with Ostd.Panic.Kernel_panic _ -> panicked := true));
  Ostd.Task.run ();
  check "rcu read section is atomic" true !panicked

(* --- User mode --- *)

let test_user_syscall_roundtrip () =
  fresh ();
  let vm = Ostd.Vmspace.create () in
  let prog uapi =
    let r = uapi.Ostd.User.sys 1 [| 41L |] in
    Int64.to_int r
  in
  let ut = Ostd.User.create prog vm in
  let exit_code = ref (-1) in
  ignore
    (Ostd.Task.spawn (fun () ->
         let rec loop resume =
           match Ostd.User.execute ut resume with
           | Ostd.User.Syscall { nr = 1; args } ->
             loop (Ostd.User.Sysret (Int64.add args.(0) 1L))
           | Ostd.User.Syscall _ -> loop (Ostd.User.Sysret (-38L))
           | Ostd.User.Page_fault _ -> Alcotest.fail "unexpected fault"
           | Ostd.User.Exit code -> exit_code := code
         in
         loop Ostd.User.Start));
  Ostd.Task.run ();
  check_int "syscall result became exit code" 42 !exit_code;
  Ostd.Vmspace.destroy vm

let test_user_demand_paging () =
  fresh ();
  let vm = Ostd.Vmspace.create () in
  let prog uapi =
    (* Touch unmapped memory: the kernel maps a zero page on fault. *)
    uapi.Ostd.User.mem_write_u64 0x7000 123L;
    if uapi.Ostd.User.mem_read_u64 0x7000 = 123L then 0 else 1
  in
  let ut = Ostd.User.create prog vm in
  let faults = ref 0 in
  let exit_code = ref (-1) in
  ignore
    (Ostd.Task.spawn (fun () ->
         let rec loop resume =
           match Ostd.User.execute ut resume with
           | Ostd.User.Page_fault { vaddr; _ } ->
             incr faults;
             Ostd.Vmspace.map vm
               ~vaddr:(vaddr / 4096 * 4096)
               (Ostd.Frame.alloc ())
               Ostd.Vmspace.rw;
             loop Ostd.User.Fault_resolved
           | Ostd.User.Syscall _ -> loop (Ostd.User.Sysret 0L)
           | Ostd.User.Exit code -> exit_code := code
         in
         loop Ostd.User.Start));
  Ostd.Task.run ();
  check_int "exit ok" 0 !exit_code;
  check_int "exactly one demand fault" 1 !faults;
  Ostd.Vmspace.destroy vm

let test_user_context_masks_sensitive_rflags () =
  let ctx = Ostd.User.Context.create () in
  (* IF (bit 9) and IOPL (bits 12-13) must be masked; carry (bit 0) kept. *)
  Ostd.User.Context.set_rflags ctx 0x3201L;
  Alcotest.(check int64) "masked" 0x1L (Ostd.User.Context.rflags ctx)

let test_user_context_clone () =
  let ctx = Ostd.User.Context.create () in
  Ostd.User.Context.set_gpr ctx 0 7L;
  Ostd.User.Context.set_rip ctx 0x400000L;
  let c2 = Ostd.User.Context.clone ctx in
  Ostd.User.Context.set_gpr ctx 0 9L;
  Alcotest.(check int64) "clone is independent" 7L (Ostd.User.Context.get_gpr c2 0);
  Alcotest.(check int64) "rip copied" 0x400000L (Ostd.User.Context.rip c2)

(* --- Self-test corpus (Kernmiri.Corpus) --- *)

let selftest_cases =
  List.map
    (fun c ->
      Alcotest.test_case
        (c.Kernmiri.Corpus.submodule ^ "." ^ c.Kernmiri.Corpus.name)
        `Quick
        (fun () -> c.Kernmiri.Corpus.run ()))
    Kernmiri.Corpus.cases

(* --- Properties --- *)

let prop_untyped_roundtrip =
  QCheck.Test.make ~name:"untyped_random_roundtrips" ~count:100
    QCheck.(pair (int_range 0 4000) (string_of_size (QCheck.Gen.int_range 1 96)))
    (fun (off, s) ->
      fresh ();
      let f = Ostd.Frame.alloc () in
      let len = String.length s in
      let fits = off + len <= 4096 in
      let ok =
        if fits then begin
          Ostd.Untyped.write_bytes f ~off ~buf:(Bytes.of_string s) ~pos:0 ~len;
          let out = Bytes.create len in
          Ostd.Untyped.read_bytes f ~off ~buf:out ~pos:0 ~len;
          Bytes.to_string out = s
        end
        else
          match Ostd.Untyped.write_bytes f ~off ~buf:(Bytes.of_string s) ~pos:0 ~len with
          | () -> false
          | exception Ostd.Panic.Kernel_panic _ -> true
      in
      Ostd.Frame.drop f;
      ok)

let prop_frame_alloc_drop_balance =
  QCheck.Test.make ~name:"frame_handles_balance" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 4))
    (fun sizes ->
      fresh ();
      let frames = List.map (fun p -> Ostd.Frame.alloc ~pages:p ()) sizes in
      let live_at_peak = Ostd.Frame.live_handles () in
      List.iter Ostd.Frame.drop frames;
      live_at_peak = List.length sizes && Ostd.Frame.live_handles () = 0)

let prop_slab_alloc_free =
  QCheck.Test.make ~name:"slab_never_aliases_slots" ~count:50
    QCheck.(int_range 1 64)
    (fun n ->
      fresh ();
      let s = Ostd.Slab.create ~slot_size:64 ~pages:1 in
      let taken = ref [] in
      for _ = 1 to n do
        match Ostd.Slab.alloc s with
        | Some slot -> taken := slot :: !taken
        | None -> ()
      done;
      let addrs = List.map Ostd.Slab.Heap_slot.addr !taken in
      let distinct = List.sort_uniq compare addrs in
      let ok = List.length distinct = List.length addrs in
      List.iter (Ostd.Slab.dealloc s) !taken;
      Ostd.Slab.destroy s;
      ok)

(* --- Graceful degradation: containment, IRQ storms, transient allocs --- *)

let drain () =
  while Sim.Events.run_next () do
    ()
  done

let test_service_failure_contained () =
  fresh ();
  (match Ostd.Panic.contain (fun () -> Ostd.Panic.fail ~errno:5 "disk on fire") with
  | Error 5 -> ()
  | Error e -> Alcotest.failf "wrong errno %d" e
  | Ok _ -> Alcotest.fail "failure was swallowed");
  check_int "success passes through" 3
    (match Ostd.Panic.contain (fun () -> 3) with Ok v -> v | Error _ -> -1);
  (* Invariant violations must NOT be containable. *)
  match Ostd.Panic.contain (fun () -> Ostd.Panic.panic "Inv. broken") with
  | exception Ostd.Panic.Kernel_panic _ -> ()
  | _ -> Alcotest.fail "Kernel_panic must escape containment"

let test_task_contained_death () =
  fresh ();
  let survivor = ref false in
  ignore (Ostd.Task.spawn ~name:"doomed" (fun () -> Ostd.Panic.fail "service hiccup"));
  ignore (Ostd.Task.spawn ~name:"bystander" (fun () -> survivor := true));
  Ostd.Task.run ();
  check "bystander unaffected" true !survivor;
  check "death recorded as contained" true (Sim.Stats.get "task.contained_failure" > 0)

let test_irq_spurious_vector_absorbed () =
  fresh ();
  (* Nobody claims the spurious vector; delivery must be absorbed and
     counted, never crash. Injected by the chip itself, so it bypasses
     remapping exactly like real spurious interrupts do. *)
  let line = Ostd.Irq.claim ~vector:77 ~name:"legit" () in
  Ostd.Irq.set_handler line (fun () -> ());
  Ostd.Irq.bind_device line ~dev:3;
  Sim.Fault.configure ~seed:2L [ ("irq.spurious", 1.0) ];
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 3) ~vector:77;
  drain ();
  Sim.Fault.disable ();
  check "spurious delivery absorbed" true (Sim.Stats.get "irq.unhandled" > 0);
  check "spurious injection recorded" true (Sim.Stats.get "irq.injected_spurious" > 0)

let test_irq_storm_masked_and_polled () =
  fresh ();
  let line = Ostd.Irq.claim ~vector:88 ~name:"stormy" () in
  let runs = ref 0 in
  Ostd.Irq.set_handler line (fun () -> incr runs);
  Ostd.Irq.bind_device line ~dev:4;
  for _ = 1 to 200 do
    Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 4) ~vector:88
  done;
  drain ();
  check "handler shielded from the storm" true (!runs < 200);
  check "storm masked the vector" true (Sim.Stats.get "irq.storm_masked" > 0);
  check "excess deliveries dropped" true (Sim.Stats.get "irq.masked_dropped" > 0);
  check "polled fallback serviced it" true (Sim.Stats.get "degrade.recovered.irq_poll" > 0);
  check "vector unmasked after the poll" false (Ostd.Irq.is_masked ~vector:88);
  check_int "no vector left masked" 0 (Ostd.Irq.masked_count ())

let test_irq_handler_failure_contained () =
  fresh ();
  let line = Ostd.Irq.claim ~vector:99 ~name:"flaky" () in
  Ostd.Irq.set_handler line (fun () -> Ostd.Panic.fail "device ate the buffer");
  Ostd.Irq.bind_device line ~dev:5;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 5) ~vector:99;
  drain ();
  check "failure contained, kernel alive" true (Sim.Stats.get "irq.handler_contained" > 0)

let test_alloc_transient_retry () =
  fresh ();
  Sim.Fault.configure ~seed:3L [ ("alloc.fail", 0.4) ];
  for _ = 1 to 20 do
    Ostd.Frame.drop (Ostd.Frame.alloc ())
  done;
  Sim.Fault.disable ();
  check "transient failures retried" true (Sim.Stats.get "degrade.retried.alloc" > 0);
  check "allocations recovered" true (Sim.Stats.get "degrade.recovered.alloc" > 0)

let prop_vmspace_copy_matches =
  QCheck.Test.make ~name:"vmspace_copy_in_out_match" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_range 1 12000))
    (fun s ->
      fresh ();
      let vm = Ostd.Vmspace.create () in
      let len = String.length s in
      let pages = ((len + 4095) / 4096) + 1 in
      Ostd.Vmspace.map vm ~vaddr:0x10000
        (Ostd.Frame.alloc ~pages ())
        Ostd.Vmspace.rw;
      let ok =
        match Ostd.Vmspace.copy_in vm ~vaddr:0x10000 ~buf:(Bytes.of_string s) ~pos:0 ~len with
        | Error _ -> false
        | Ok () -> (
          let out = Bytes.create len in
          match Ostd.Vmspace.copy_out vm ~vaddr:0x10000 ~buf:out ~pos:0 ~len with
          | Error _ -> false
          | Ok () -> Bytes.to_string out = s)
      in
      Ostd.Vmspace.destroy vm;
      ok)

let () =
  Alcotest.run "ostd"
    [
      ("selftest_corpus", selftest_cases);
      ( "task",
        [
          Alcotest.test_case "spawn_run" `Quick test_spawn_and_run;
          Alcotest.test_case "yield" `Quick test_yield_interleaves;
          Alcotest.test_case "wait_queue" `Quick test_wait_queue_wake;
          Alcotest.test_case "sleep_timeout" `Quick test_sleep_timeout;
          Alcotest.test_case "sleep_clock" `Quick test_task_sleep_advances_clock;
          Alcotest.test_case "inv8_double_run" `Quick test_inv8_double_run_panics;
          Alcotest.test_case "kill" `Quick test_kill_prevents_running;
          Alcotest.test_case "custom_data" `Quick test_custom_data;
          Alcotest.test_case "oldest_ready_seed11" `Quick (test_oldest_ready_random 11);
          Alcotest.test_case "oldest_ready_seed23" `Quick (test_oldest_ready_random 23);
          Alcotest.test_case "oldest_ready_starved" `Quick test_oldest_ready_starved;
        ] );
      ( "sync",
        [
          Alcotest.test_case "spinlock_atomic" `Quick test_spinlock_atomic_mode;
          Alcotest.test_case "sleep_under_spinlock" `Quick test_sleep_under_spinlock_panics;
          Alcotest.test_case "mutex" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "rwlock" `Quick test_rwlock_readers_share;
          Alcotest.test_case "rcu" `Quick test_rcu_grace_period;
          Alcotest.test_case "rcu_atomic" `Quick test_rcu_no_sleep_in_read;
        ] );
      ( "user",
        [
          Alcotest.test_case "syscall_roundtrip" `Quick test_user_syscall_roundtrip;
          Alcotest.test_case "demand_paging" `Quick test_user_demand_paging;
          Alcotest.test_case "rflags_mask" `Quick test_user_context_masks_sensitive_rflags;
          Alcotest.test_case "context_clone" `Quick test_user_context_clone;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "service_failure_contained" `Quick test_service_failure_contained;
          Alcotest.test_case "task_contained_death" `Quick test_task_contained_death;
          Alcotest.test_case "irq_spurious_absorbed" `Quick test_irq_spurious_vector_absorbed;
          Alcotest.test_case "irq_storm_masked_polled" `Quick test_irq_storm_masked_and_polled;
          Alcotest.test_case "irq_handler_contained" `Quick test_irq_handler_failure_contained;
          Alcotest.test_case "alloc_transient_retry" `Quick test_alloc_transient_retry;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_untyped_roundtrip;
            prop_frame_alloc_drop_balance;
            prop_slab_alloc_free;
            prop_vmspace_copy_matches;
          ] );
    ]
