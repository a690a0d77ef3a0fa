(** Kernel tasks and the scheduler-injection API (paper §4.4.1, Table 4).

    Tasks are cooperative coroutines implemented with OCaml 5 effect
    handlers; one runs at a time (the paper evaluates SMP = 1). OSTD owns
    the mechanism — spawn, suspend, resume, the Inv. 8 [is_running] check
    at every context switch — while the policy (which task next) is a
    client-injected {!SCHEDULER}. When no task is runnable, the dispatch
    loop advances the virtual clock to the next device or timer event. *)

type t

type custom = ..
(** Scheduler-attached per-task data (the paper's [Box<dyn Any>]). *)

val tid : t -> int
val name : t -> string
val is_running : t -> bool
val is_dead : t -> bool
val custom : t -> custom option
val set_custom : t -> custom -> unit

val nice : t -> int
val set_nice : t -> int -> unit
(** Scheduling weight hint carried by OSTD so schedulers need no side
    tables for the common attribute. *)

module type SCHEDULER = sig
  val enqueue : t -> unit
  (** Hand a runnable task to the policy (spawn or wake-up). *)

  val pick_next : unit -> t option
  (** Choose and remove the next task to run. *)

  val update_curr : unit -> unit
  (** Scheduling event notification (tick, yield, sleep). *)

  val dequeue_curr : unit -> unit
  (** The current task became unrunnable. *)
end

val inject_scheduler : (module SCHEDULER) -> unit
(** Register once, before any task exists; re-injection panics. *)

val inject_fifo_scheduler : unit -> unit
(** Convenience bootstrap policy for OSTD's own tests and examples. *)

val reset : unit -> unit
(** Forget scheduler and tasks (new boot). *)

val spawn : ?name:string -> (unit -> unit) -> t
(** Create a task (allocating its kernel stack with a guard page —
    Inv. 4) and enqueue it. *)

val current : unit -> t
(** Panics outside task context. *)

val current_opt : unit -> t option

val yield_now : unit -> unit
(** Re-enqueue the current task and switch away. *)

val block : unit -> unit
(** Suspend without re-enqueueing; the caller must have arranged a
    wake-up (wait queue, timer). Panics in atomic mode. *)

val wake : t -> unit
(** Make a task runnable; idempotent for already-runnable tasks. *)

val exit : unit -> 'a
(** Terminate the current task. *)

val kill : t -> unit
(** Mark another task dead; it will not run again. *)

val sleep_cycles : int -> unit
val sleep_us : float -> unit

val on_idle : (unit -> unit) -> unit
(** Hook run each time the dispatcher finds no runnable task, before
    consulting the event queue (Asterinas drains softirqs here). *)

val run : unit -> unit
(** Dispatch until no task is runnable and no event is pending. *)

val run_until : (unit -> bool) -> unit
(** Dispatch until the predicate holds (checked between switches). *)

val live_tasks : unit -> int

(** {2 CPU accounting} (kprof; observability only — never charges)

    Cycles are split into utime/stime by a per-task mode flag that the
    user-return loop flips at the user/kernel boundary. All readings are
    virtual cycles. *)

val cpu_times : t -> Sim.Time.t * Sim.Time.t
(** [(utime, stime)], including the live span of a running task. *)

val ctx_switches : t -> int * int
(** [(nvcsw, nivcsw)]: voluntary (blocked) vs involuntary (yielded). *)

val sched_delay : t -> int * Sim.Time.t * Sim.Time.t
(** [(dispatches, total_wait_cycles, max_wait_cycles)] — runqueue wait
    from wake-up/enqueue to dispatch; also fed to the ["sched.delay"]
    histogram in microseconds. *)

val aggregate_cpu_times : unit -> Sim.Time.t * Sim.Time.t
(** Whole-system [(utime, stime)] including dead tasks. *)

val context_switches : unit -> int
(** Dispatches since boot (the /proc/stat [ctxt] line). *)

val account_user_entry : unit -> unit
(** Called by the user-return loop when control is about to enter user
    mode: flushes the elapsed span into stime, then accrues utime. *)

val account_kernel_entry : unit -> unit
(** The reverse boundary: flushes into utime, then accrues stime. *)
