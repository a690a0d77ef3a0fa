(** Wait queues: the blocking primitive every kernel service is built on.

    Sleeping in atomic mode panics (see {!Atomic_mode}); waking charges
    the wake-up cost. *)

type t

val create : unit -> t

val sleep : t -> unit
(** Enqueue the current task and switch away until woken. *)

val sleep_until : t -> (unit -> bool) -> unit
(** Sleep in a loop until the condition holds; the condition is
    re-checked after every wake-up, so spurious wake-ups are harmless. *)

val sleep_timeout : t -> cycles:int -> bool
(** [true] if woken through the queue, [false] on timeout, which fires
    at exactly [now + cycles] and never inside the call; equal
    deadlines fire in arm order. Arming charges [timer_program] and
    counts [timer.armed], then [timer.fired] or [timer.cancelled]. *)

val wake_one : t -> bool
(** Wake the longest-waiting task; [false] if the queue was empty. *)

val wake_all : t -> int

val waiters : t -> int
