(** Virtual cycle clock for the whole simulated machine.

    The simulator is single-socket (SMP = 1, matching the paper's
    evaluation setup), so one global cycle counter suffices. Kernel and
    device code advance it by charging cycle costs; when every task is
    blocked, {!Events} advances it to the next scheduled event. *)

val cycles_per_us : int
(** Nominal frequency: 3000 cycles per microsecond (3 GHz). *)

val reset : unit -> unit
(** Reset the clock to cycle 0. Tests and benchmark runs call this. *)

val now : unit -> int64
(** Current virtual time in cycles. *)

val charge : int -> unit
(** [charge n] advances virtual time by [n] cycles. [n < 0] is a
    programming error and raises [Invalid_argument]. *)

val advance_to : int64 -> unit
(** Jump forward to an absolute cycle count (used by the event queue when
    the machine is idle). Moving backwards is ignored. *)

val set_on_advance : (int -> unit) -> unit
(** Install the clock observer: called with the delta on every forward
    movement of virtual time ([charge] or [advance_to]). There is one
    slot, and kspan owns it: its observer feeds kprof attribution and
    kspan's on-CPU segments. The observer must not charge cycles. *)

val to_us : int64 -> float
(** Convert a cycle count to microseconds. *)

val to_seconds : int64 -> float

val to_ns : int64 -> int64
(** Exact nanoseconds of a cycle count: [t * 1000 / cycles_per_us]. *)

val us : float -> int
(** [us x] is the number of cycles in [x] microseconds. *)
