(** Virtual cycle clock for the whole simulated machine.

    The simulator is single-socket (SMP = 1, matching the paper's
    evaluation setup), so one global cycle counter suffices. Kernel and
    device code advance it by charging cycle costs; when every task is
    blocked, {!Events} advances it to the next scheduled event. The
    counter is read with {!Time.now}. *)

val reset : unit -> unit
(** Reset the clock to cycle 0. Tests and benchmark runs call this. *)

val charge : int -> unit
(** [charge n] advances virtual time by [n] cycles. [n < 0] is a
    programming error and raises [Invalid_argument]. *)

val advance_to : Time.t -> unit
(** Jump forward to an absolute cycle count (used by the event queue when
    the machine is idle). Moving backwards is ignored. *)

val set_on_advance : (int -> unit) -> unit
(** Install the clock observer: called with the delta on every forward
    movement of virtual time ([charge] or [advance_to]). There is one
    slot, and kspan owns it: its observer feeds kprof attribution and
    kspan's on-CPU segments. The observer must not charge cycles. *)

(** {2 The int64 view read by [perfbench/]}

    The repository benchmark reads virtual time as [int64]. These are
    views over {!Time} for it alone; the simulator itself uses {!Time}.
    They can go once the benchmark moves to {!Time}. *)

val now : unit -> int64
(** [Int64.of_int (Time.now ())]. *)

val to_us : int64 -> float
(** [Time.to_us] of an [int64] cycle count. *)

val to_seconds : int64 -> float
(** [Time.to_seconds] of an [int64] cycle count. *)
