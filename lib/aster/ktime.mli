(** Timekeeping: Asterinas (not OSTD) maintains wall and monotonic clocks
    by reading the TSC through OSTD. *)

val boot_epoch_seconds : float
(** Wall-clock time at boot (fixed, deterministic). *)

val monotonic_ns : unit -> int
(** Nanoseconds since boot: [Sim.Time.to_ns] of the clock. *)

val realtime_ns : unit -> int
(** Nanoseconds since the epoch. A native int holds them until 2116. *)

val seconds : unit -> float
