type custom = ..

type state = Ready | Running | Blocked | Dead

type t = {
  tid : int;
  tname : string;
  mutable st : state;
  mutable running_flag : bool; (* Inv. 8 *)
  mutable cust : custom option;
  mutable nice_val : int;
  kstack : Kstack.t;
  mutable resume : resume option;
  (* --- kprof CPU accounting (observability only: never charges) --- *)
  mutable utime : Sim.Time.t; (* cycles accounted to user mode *)
  mutable stime : Sim.Time.t; (* cycles accounted to kernel mode *)
  mutable user_mode : bool; (* which bucket accrues right now *)
  mutable acct_mark : Sim.Time.t; (* clock at last accounting flush *)
  mutable nvcsw : int; (* voluntary context switches (blocked) *)
  mutable nivcsw : int; (* involuntary context switches (yielded) *)
  mutable runnable_at : Sim.Time.t; (* enqueue instant, -1 once dispatched *)
  mutable sdelay_sum : Sim.Time.t; (* total runqueue-wait cycles *)
  mutable sdelay_cnt : int; (* dispatches with a measured wait *)
  mutable sdelay_max : Sim.Time.t;
  (* --- the Ready list (observability only: never consulted to pick) --- *)
  mutable rq_prev : t option;
  mutable rq_next : t option;
  some : t option; (* [Some] of this task, built once, so list updates allocate nothing *)
}

and resume = Start of (unit -> unit) | Cont of (unit, unit) Effect.Deep.continuation

exception Task_exit

type _ Effect.t += Suspend : unit Effect.t

let tid t = t.tid

let name t = t.tname

let is_running t = t.running_flag

let is_dead t = t.st = Dead

let custom t = t.cust

let set_custom t c = t.cust <- Some c

let nice t = t.nice_val

let set_nice t n = t.nice_val <- n

module type SCHEDULER = sig
  val enqueue : t -> unit
  val pick_next : unit -> t option
  val update_curr : unit -> unit
  val dequeue_curr : unit -> unit
end

let sched : (module SCHEDULER) option ref = ref None

let cur : t option ref = ref None

let last_ran : int ref = ref (-1)

let next_tid = ref 0

let live = ref 0

(* Ready tasks in the order they became Ready, whatever order the
   injected policy picks them in: [enqueue_ready] appends, [dispatch]
   and [kill] unlink. The clock never moves back, so this is also
   [runnable_at] order, and the head has waited longest. The hung-task
   watchdog's ctx field is that wait, read at sched tracepoints in O(1)
   instead of a scan over every task. *)
let ready_head : t option ref = ref None

let ready_tail : t option ref = ref None

let ready_append t =
  t.rq_prev <- !ready_tail;
  t.rq_next <- None;
  (match !ready_tail with Some p -> p.rq_next <- t.some | None -> ready_head := t.some);
  ready_tail := t.some

let ready_unlink t =
  (match t.rq_prev with Some p -> p.rq_next <- t.rq_next | None -> ready_head := t.rq_next);
  (match t.rq_next with Some n -> n.rq_prev <- t.rq_prev | None -> ready_tail := t.rq_prev);
  t.rq_prev <- None;
  t.rq_next <- None

let max_runnable_wait_ns () =
  match !ready_head with
  | None -> 0
  | Some t ->
    let d = Sim.Time.now () - t.runnable_at in
    if d > 0 then Sim.Time.to_ns d else 0

(* --- CPU accounting ---

   Virtual time only moves through [Sim.Cost] charges and event jumps,
   so accounting is a matter of marks: while a task runs, the cycles
   between its dispatch mark and the next flush belong to it, split
   into utime/stime by the [user_mode] flag the user-return boundary
   flips. Whole-system totals accumulate alongside so /proc/stat can
   report user/system/idle without walking dead tasks. *)

let total_utime = ref 0

let total_stime = ref 0

let switch_count = ref 0

let acct_flush t =
  let now = Sim.Time.now () in
  let d = now - t.acct_mark in
  if d > 0 then
    if t.user_mode then begin
      t.utime <- t.utime + d;
      total_utime := !total_utime + d
    end
    else begin
      t.stime <- t.stime + d;
      total_stime := !total_stime + d
    end;
  t.acct_mark <- now

(* utime/stime including the live span of a currently-running task. *)
let cpu_times t =
  if t.running_flag then begin
    let d = Int.max 0 (Sim.Time.now () - t.acct_mark) in
    if t.user_mode then (t.utime + d, t.stime) else (t.utime, t.stime + d)
  end
  else (t.utime, t.stime)

let ctx_switches t = (t.nvcsw, t.nivcsw)

let sched_delay t = (t.sdelay_cnt, t.sdelay_sum, t.sdelay_max)

let aggregate_cpu_times () = (!total_utime, !total_stime)

let context_switches () = !switch_count

(* The user/kernel boundary, called by the user-return loop: flush the
   elapsed span into the old bucket, then flip. *)
let account_user_entry () =
  match !cur with
  | Some t ->
    acct_flush t;
    t.user_mode <- true
  | None -> ()

let account_kernel_entry () =
  match !cur with
  | Some t ->
    acct_flush t;
    t.user_mode <- false
  | None -> ()

let idle_hook : (unit -> unit) ref = ref (fun () -> ())

let inject_scheduler m =
  match !sched with
  | Some _ -> Panic.panic "Task.inject_scheduler: a scheduler is already registered"
  | None -> sched := Some m

let scheduler () =
  match !sched with
  | Some m -> m
  | None -> Panic.panic "Task: no scheduler injected"

let inject_fifo_scheduler () =
  let q : t Queue.t = Queue.create () in
  let module Fifo = struct
    let enqueue t = Queue.push t q

    let pick_next () = Queue.take_opt q

    let update_curr () = ()

    let dequeue_curr () = ()
  end in
  inject_scheduler (module Fifo)

let reset () =
  sched := None;
  cur := None;
  last_ran := -1;
  next_tid := 0;
  live := 0;
  ready_head := None;
  ready_tail := None;
  total_utime := 0;
  total_stime := 0;
  switch_count := 0;
  idle_hook := (fun () -> ());
  Atomic_mode.reset ()

let current_opt () = !cur

let current () =
  match !cur with
  | Some t -> t
  | None -> Panic.panic "Task.current: not in task context"

let enqueue_ready t =
  let (module S) = scheduler () in
  t.st <- Ready;
  (* Runqueue-wait starts now; dispatch measures the delta. *)
  t.runnable_at <- Sim.Time.now ();
  ready_append t;
  S.enqueue t

let spawn ?(name = "task") body =
  incr next_tid;
  incr live;
  let rec t =
    {
      tid = !next_tid;
      tname = name;
      st = Ready;
      running_flag = false;
      cust = None;
      nice_val = 0;
      kstack = Kstack.create ();
      resume = Some (Start body);
      utime = 0;
      stime = 0;
      user_mode = false;
      acct_mark = 0;
      nvcsw = 0;
      nivcsw = 0;
      runnable_at = -1;
      sdelay_sum = 0;
      sdelay_cnt = 0;
      sdelay_max = 0;
      rq_prev = None;
      rq_next = None;
      some = Some t;
    }
  in
  enqueue_ready t;
  t

let tp_wakeup =
  Sim.Trace.point Sim.Trace.Sched "wakeup" [| "tid"; "now_ns"; "max_wait_ns" |] (fun f ->
      Printf.sprintf "task=%s/%d" f.s f.a)

let wake t =
  match t.st with
  | Blocked ->
    enqueue_ready t;
    (* The wakeup edge hands a completion's span back to the sleeping
       task: if this wake happens inside an IRQ/softirq kprof scope,
       the delivery leg is recorded on the woken task's span. *)
    Sim.Span.on_wake ~tid:t.tid;
    if Sim.Trace.live tp_wakeup then
      Sim.Trace.emit_s tp_wakeup t.tname t.tid
        (Sim.Time.to_ns (Sim.Time.now ()))
        (max_runnable_wait_ns ()) 0 0 0
  | Ready | Running | Dead -> ()

let exit () = raise Task_exit

let kill t =
  if t.st <> Dead then begin
    if t.st = Ready then ready_unlink t;
    t.st <- Dead;
    decr live;
    Kstack.destroy t.kstack
  end

(* Marks the dispatched task finished; runs inside the handler when the
   task body returns or raises. *)
let on_death t =
  acct_flush t;
  if t.st <> Dead then begin
    t.st <- Dead;
    decr live;
    Kstack.destroy t.kstack
  end;
  t.running_flag <- false;
  cur := None;
  Sim.Span.on_task_exit t.tid;
  Sim.Prof.switch_idle ()

let handler (t : t) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> on_death t);
    exnc =
      (fun e ->
        on_death t;
        match e with
        | Task_exit -> ()
        | Panic.Service_failure { msg; errno } ->
          (* Containment backstop: a service failure that nobody above
             translated kills only this task. Invariant violations
             (Kernel_panic) still unwind the whole simulation. *)
          Sim.Stats.incr "task.contained_failure";
          Logs.debug (fun m ->
              m "task %s (tid %d) died of contained failure (errno %d): %s" t.tname t.tid
                errno msg)
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              (* The task suspends: record where to resume, hand control
                 back to the dispatch loop. *)
              acct_flush t;
              t.resume <- Some (Cont k);
              t.running_flag <- false;
              cur := None;
              Sim.Span.on_deschedule ();
              Sim.Prof.switch_idle ())
        | _ -> None);
  }

let tp_switch =
  Sim.Trace.point Sim.Trace.Sched "switch" [| "prev_tid"; "next_tid"; "now_ns"; "max_wait_ns" |]
    (fun f -> Printf.sprintf "prev=%d next=%s/%d" f.a f.s f.b)

let dispatch t =
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.running_flag);
  if t.running_flag then Panic.panic "Inv. 8 violated: task is already running on another CPU";
  if t.st <> Dead then begin
    (* kprof's context follows the incoming task from here on: the
       switch cost below is charged to the task being switched in, as
       is its accounting mark, and ktrace names it. *)
    Sim.Prof.switch_to ~tid:t.tid ~comm:t.tname;
    t.acct_mark <- Sim.Time.now ();
    (* Runqueue wait: from the enqueue that made the task runnable to
       this dispatch. Fed to the sched.delay histogram (microseconds)
       and the per-task schedstat totals; costs nothing in virtual
       time. *)
    let own_wait_ns = ref 0 in
    let span_waited = ref 0 in
    if t.st = Ready then ready_unlink t;
    if t.runnable_at >= 0 then begin
      let d = Int.max 0 (Sim.Time.now () - t.runnable_at) in
      t.runnable_at <- -1;
      t.sdelay_sum <- t.sdelay_sum + d;
      t.sdelay_cnt <- t.sdelay_cnt + 1;
      if d > t.sdelay_max then t.sdelay_max <- d;
      own_wait_ns := Sim.Time.to_ns d;
      span_waited := d;
      Sim.Hist.observe "sched.delay" d
    end;
    (* Span bookkeeping before the switch cost below, so those cycles
       attribute on-CPU to the incoming task's span. *)
    Sim.Span.on_dispatch ~tid:t.tid ~waited:!span_waited;
    incr switch_count;
    (* Re-dispatching the task that just ran (a solo yield) skips the
       register save/restore and cache refill of a real switch. *)
    if !last_ran = t.tid then Sim.Cost.charge 40
    else Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.context_switch;
    (* max_wait_ns covers the task being switched in (it just finished
       waiting) as well as everything still on the runqueue, so a
       starved task is visible at the very switch that rescues it. *)
    if Sim.Trace.live tp_switch then
      Sim.Trace.emit_s tp_switch t.tname !last_ran t.tid
        (Sim.Time.to_ns (Sim.Time.now ()))
        (Int.max !own_wait_ns (max_runnable_wait_ns ()))
        0 0;
    last_ran := t.tid;
    t.st <- Running;
    t.running_flag <- true;
    cur := Some t;
    match t.resume with
    | Some (Start body) ->
      t.resume <- None;
      Effect.Deep.match_with body () (handler t)
    | Some (Cont k) ->
      t.resume <- None;
      Effect.Deep.continue k ()
    | None ->
      Panic.panic "Task.dispatch: task has no continuation"
  end

let suspend () = Effect.perform Suspend

let yield_now () =
  let t = current () in
  (* In the cooperative simulator a yield is the preemption point, so
     it counts as the involuntary switch (Linux: nivcsw). *)
  t.nivcsw <- t.nivcsw + 1;
  let (module S) = scheduler () in
  S.update_curr ();
  enqueue_ready t;
  suspend ()

let block () =
  Atomic_mode.assert_sleepable "Task.block";
  let t = current () in
  t.nvcsw <- t.nvcsw + 1;
  let (module S) = scheduler () in
  S.update_curr ();
  S.dequeue_curr ();
  t.st <- Blocked;
  suspend ();
  if (current ()).st = Dead then raise Task_exit

let sleep_cycles n =
  Atomic_mode.assert_sleepable "Task.sleep";
  let t = current () in
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.timer_program;
  ignore (Sim.Events.schedule_after n (fun () -> wake t));
  block ()

let sleep_us x = sleep_cycles (Sim.Time.of_us x)

let on_idle f = idle_hook := f

let rec loop stop =
  if not (stop ()) then begin
    ignore (Sim.Events.run_due ());
    let (module S) = scheduler () in
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.sched_pick;
    match S.pick_next () with
    | Some t ->
      if t.st = Dead then loop stop
      else begin
        dispatch t;
        loop stop
      end
    | None ->
      !idle_hook ();
      (* Nothing runnable: let the machine make progress. *)
      if Sim.Events.run_next () then loop stop else ()
  end

let run () = loop (fun () -> false)

let run_until p = loop p

let live_tasks () = !live
