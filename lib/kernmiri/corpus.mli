(** OSTD's unit-test corpus, shared by the alcotest suite and the
    KernMiri runner (the paper interprets exactly OSTD's unit tests to
    measure coverage — Table 10). It drives OSTD through its public
    interfaces only, so it lives here, outside the TCB, with the tool
    that interprets it.

    Each case boots a fresh machine, so cases are order-independent. *)

type case = { submodule : string; name : string; run : unit -> unit }

val cases : case list

val submodules : unit -> string list

val run_submodule : string -> int
(** Run every case of one submodule; returns the number executed. Raises
    on the first failure. *)

val fresh_boot : ?frames:int -> unit -> unit
(** Boot OSTD with the bootstrap allocator and FIFO scheduler — the
    standalone configuration used by tests and the quickstart example. *)

val expect_panic : (unit -> unit) -> unit
(** Fails unless the thunk raises [Kernel_panic]. *)
