(* --- Lock observability (kprof) ---

   Every lock reports under its [create] name: acquisition and
   contention counts land in [Sim.Stats] as lock.<name>.acquire /
   lock.<name>.contended (kstat picks them up with no new plumbing),
   and hold/wait durations feed lock.<name>.hold / lock.<name>.wait
   microsecond histograms in [Sim.Hist]. A hold outliving the watchdog
   threshold emits a lock:long_hold tracepoint. Observability only: no
   virtual cycles are charged beyond what the locks always charged, so
   instrumented runs time identically to the seed.

   The stat-key strings are built once per lock at [create]; each
   operation then looks the registries up by those cached keys, which
   stays correct across the Stats/Hist reset a reboot performs (locks
   created at module init outlive boots). *)

module Lock_stat = struct
  type t = {
    lname : string;
    acquire_key : string;
    contended_key : string;
    hold_key : string;
    wait_key : string;
  }

  let make lname =
    {
      lname;
      acquire_key = "lock." ^ lname ^ ".acquire";
      contended_key = "lock." ^ lname ^ ".contended";
      hold_key = "lock." ^ lname ^ ".hold";
      wait_key = "lock." ^ lname ^ ".wait";
    }

  (* Holds longer than this trip the watchdog tracepoint. Virtual time
     is deterministic, so the tracepoint fires identically across
     same-seed runs. *)
  let hold_watchdog = ref (Sim.Time.of_us 1000.)

  let set_hold_watchdog_us x = hold_watchdog := Sim.Time.of_us x

  let acquired s ~contended ~wait_cycles =
    Sim.Stats.incr s.acquire_key;
    if contended then begin
      Sim.Stats.incr s.contended_key;
      Sim.Hist.observe s.wait_key wait_cycles
    end

  let tp_long_hold =
    Sim.Trace.point Sim.Trace.Lock "long_hold" [| "hold_cycles" |] (fun f ->
        Printf.sprintf "lock=%s hold_us=%.3f" f.s (Sim.Time.to_us f.a))

  let released s ~hold_cycles =
    Sim.Hist.observe s.hold_key hold_cycles;
    if hold_cycles > !hold_watchdog then begin
      Sim.Stats.incr "lock.watchdog.long_hold";
      Sim.Trace.emit_s tp_long_hold s.lname hold_cycles 0 0 0 0 0
    end
end

module Spin_lock = struct
  type t = { name : string; mutable holder : int option; st : Lock_stat.t }

  let create name = { name; holder = None; st = Lock_stat.make name }

  let with_lock t f =
    (match t.holder with
    | Some tid when Some tid = Option.map Task.tid (Task.current_opt ()) ->
      Panic.panicf "SpinLock %s: re-entrant acquisition (self-deadlock)" t.name
    | Some _ -> Panic.panicf "SpinLock %s: contended on a single CPU (missed release?)" t.name
    | None -> ());
    t.holder <- Some (match Task.current_opt () with Some c -> Task.tid c | None -> -1);
    (* A single-CPU spin lock cannot wait (contention panics above), so
       only acquisitions and hold times report. *)
    Lock_stat.acquired t.st ~contended:false ~wait_cycles:0;
    Atomic_mode.enter ();
    Sim.Cost.charge 20;
    let h0 = Sim.Time.now () in
    Fun.protect
      ~finally:(fun () ->
        Lock_stat.released t.st ~hold_cycles:(Sim.Time.now () - h0);
        t.holder <- None;
        Atomic_mode.exit ())
      f

  let held t = t.holder <> None
end

module Mutex = struct
  type t = {
    name : string;
    mutable holder : int option;
    wq : Wait_queue.t;
    st : Lock_stat.t;
  }

  let create name =
    { name; holder = None; wq = Wait_queue.create (); st = Lock_stat.make name }

  let with_lock t f =
    let me = Task.tid (Task.current ()) in
    if t.holder = Some me then Panic.panicf "Mutex %s: re-entrant acquisition" t.name;
    let contended = t.holder <> None in
    let w0 = Sim.Time.now () in
    Wait_queue.sleep_until t.wq (fun () -> t.holder = None);
    Lock_stat.acquired t.st ~contended ~wait_cycles:(Sim.Time.now () - w0);
    t.holder <- Some me;
    Sim.Cost.charge 30;
    let h0 = Sim.Time.now () in
    Fun.protect
      ~finally:(fun () ->
        Lock_stat.released t.st ~hold_cycles:(Sim.Time.now () - h0);
        t.holder <- None;
        ignore (Wait_queue.wake_one t.wq))
      f

  let held t = t.holder <> None
end

module Rw_lock = struct
  type t = {
    name : string;
    mutable readers : int;
    mutable writer : bool;
    wq : Wait_queue.t;
    st : Lock_stat.t;
  }

  let create name =
    { name; readers = 0; writer = false; wq = Wait_queue.create (); st = Lock_stat.make name }

  let with_read t f =
    let contended = t.writer in
    let w0 = Sim.Time.now () in
    Wait_queue.sleep_until t.wq (fun () -> not t.writer);
    Lock_stat.acquired t.st ~contended ~wait_cycles:(Sim.Time.now () - w0);
    t.readers <- t.readers + 1;
    let h0 = Sim.Time.now () in
    Fun.protect
      ~finally:(fun () ->
        Lock_stat.released t.st ~hold_cycles:(Sim.Time.now () - h0);
        t.readers <- t.readers - 1;
        if t.readers = 0 then ignore (Wait_queue.wake_all t.wq))
      f

  let with_write t f =
    let contended = t.writer || t.readers > 0 in
    let w0 = Sim.Time.now () in
    Wait_queue.sleep_until t.wq (fun () -> (not t.writer) && t.readers = 0);
    Lock_stat.acquired t.st ~contended ~wait_cycles:(Sim.Time.now () - w0);
    t.writer <- true;
    let h0 = Sim.Time.now () in
    Fun.protect
      ~finally:(fun () ->
        Lock_stat.released t.st ~hold_cycles:(Sim.Time.now () - h0);
        t.writer <- false;
        ignore (Wait_queue.wake_all t.wq))
      f
end

module Rcu = struct
  (* Single global grace-period bookkeeping: a counter of live read
     sections and a generation number. *)
  let live_readers = ref 0

  let generation = ref 0

  let gp_wq = ref (Wait_queue.create ())

  (* Called at boot: grace-period state must not leak across reboots. *)
  let reset_global () =
    live_readers := 0;
    generation := 0;
    gp_wq := Wait_queue.create ()

  type 'a t = { mutable value : 'a }

  let create v = { value = v }

  let read t f =
    Atomic_mode.enter ();
    incr live_readers;
    Fun.protect
      ~finally:(fun () ->
        decr live_readers;
        Atomic_mode.exit ();
        if !live_readers = 0 then begin
          incr generation;
          ignore (Wait_queue.wake_all !gp_wq)
        end)
      (fun () -> f t.value)

  let update t v = t.value <- v

  let synchronize () =
    Atomic_mode.assert_sleepable "Rcu.synchronize";
    if !live_readers > 0 then begin
      let target = !generation + 1 in
      Wait_queue.sleep_until !gp_wq (fun () -> !generation >= target)
    end
end

module Cpu_local = struct
  (* SMP = 1: one slot per "CPU". *)
  type 'a t = { value : 'a }

  let create init = { value = init () }

  let get t = t.value
end
