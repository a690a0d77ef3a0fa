(** Linux-style scheduler with two classes — real-time (FIFO by priority)
    and a rudimentary CFS — injected into OSTD via the Scheduler trait
    analogue (paper §4.4.1, §5).

    Pure policy in safe code: Inv. 8 (no double-run) stays enforced by
    OSTD no matter what this module does. *)

type class_ = Rt of int  (** lower value = higher priority *) | Fair

val set_class : Ostd.Task.t -> class_ -> unit
(** Default for unmarked tasks is [Fair]. Must be set before the task
    next enqueues to take effect. *)

val install : unit -> unit
(** Inject into OSTD. Call once per boot, before spawning tasks. *)

val queued : unit -> int
