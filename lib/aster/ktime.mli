(** Timekeeping: Asterinas (not OSTD) maintains wall and monotonic clocks
    by reading the TSC through OSTD. *)

val boot_epoch_seconds : float
(** Wall-clock time at boot (fixed, deterministic). *)

val monotonic_ns : unit -> int64
val realtime_ns : unit -> int64
val seconds : unit -> float
