(** Discrete event queue driving the simulated machine.

    Device completions, timer interrupts, and wire deliveries are
    scheduled here. The kernel's scheduler polls [run_due] at dispatch
    boundaries and calls [run_next] when no task is runnable. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val clear : unit -> unit
(** Drop all pending events (start of a fresh simulation). *)

val schedule_at : Time.t -> (unit -> unit) -> handle
(** Run a callback when virtual time reaches the given cycle count. *)

val schedule_after : int -> (unit -> unit) -> handle
(** [schedule_after n f] runs [f] [n] cycles from now. *)

val cancel : handle -> unit
(** Remove the event from the queue at once, in O(log n): the queue
    only ever holds live events. Cancelling an event that already fired
    or was already cancelled is a no-op. *)

val pending : unit -> int
(** Number of events still scheduled: exact, since fired and cancelled
    events have left the queue. *)

val run_due : unit -> bool
(** Run every event whose time is [<= Time.now ()]. Returns [true] if at
    least one ran. *)

val run_next : unit -> bool
(** If the queue is non-empty, advance the clock to the earliest event and
    run it (plus anything else now due). Returns [false] when empty. *)
