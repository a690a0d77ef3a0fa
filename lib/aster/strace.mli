(** Strace-style syscall accounting.

    The paper diagnoses the SQLite VACUUM gap with strace, finding
    frequent 4-byte pwrite64 calls; this module records per-syscall
    counts and per-size histograms so the benchmark harness can print the
    same diagnosis. *)

val reset : unit -> unit

val record : nr:int -> unit
(** Count only (no tracepoint); prefer [enter]/[exit_] on the
    dispatch path. *)

val enter : nr:int -> pid:int -> arg0:int64 -> unit
(** Count the call and fire the [syscall:enter] tracepoint. *)

val exit_ :
  nr:int -> ret:int64 -> cycles:Sim.Time.t -> pid:int -> arg0:int64 -> journal_commit:bool -> unit
(** Fire the [syscall:exit] tracepoint (ret or errno, latency in ns)
    and feed the ["syscall"] and ["syscall.<name>"] latency histograms
    with [cycles]. [journal_commit] says whether a journal commit ran
    during the call. Charges no virtual cycles. *)

val record_size : nr:int -> size:int -> unit
val count : nr:int -> int
val small_writes : unit -> int
(** pwrite64/write calls of at most 8 bytes. *)

val top : int -> (string * int) list
(** The n most frequent syscalls, by name. *)
