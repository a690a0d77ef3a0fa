(** Virtual time: a count of cycles of the simulated 3 GHz CPU.

    This is the one time type inside the simulator. It is a native int,
    so reading the clock, storing a stamp and subtracting two stamps
    allocate nothing. OCaml's 63-bit int holds 2^62 cycles, about 48
    years of virtual time at 3 GHz; no run comes near it. *)

type t = int

val cycles_per_us : int
(** Nominal frequency: 3000 cycles per microsecond (3 GHz). *)

val now : unit -> t
(** The current virtual time. {!Clock} moves it. *)

val to_ns : t -> int
(** Exact nanoseconds of a cycle count: [c * 1000 / cycles_per_us],
    truncated toward zero. Exact below 2^62 / 1000 cycles, about 17
    days of virtual time. *)

val to_us : t -> float
(** Microseconds: [float c /. float cycles_per_us]. *)

val to_seconds : t -> float

val of_us : float -> t
(** [of_us x] is the number of cycles in [x] microseconds, truncated. *)

(**/**)

val counter : t ref
(** The cell behind {!now}. Only {!Clock} writes it: time moves by
    [Clock.charge], [Clock.advance_to] and [Clock.reset] alone. *)
