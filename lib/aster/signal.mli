(** Signals — the termination-and-masking core of the Linux signal ABI.

    Dispositions: SIGKILL is unblockable and always terminates;
    SIGCHLD/SIGURG/SIGWINCH default to ignore; everything else defaults
    to terminate. rt_sigaction can set Ignore explicitly; blocked
    terminating signals stay pending until unblocked (rt_sigprocmask
    delivers them on unmask). User-mode handler trampolines are out of
    scope (see DESIGN.md): registering a handler behaves as Ignore plus a
    pending record the process can query. *)

type disposition = Default | Ignore | Handled

type state

val fresh : unit -> state

val set_action : state -> signal:int -> disposition -> unit
val action : state -> signal:int -> disposition

val block : state -> mask:int -> unit
(** OR the mask in (SIG_BLOCK). SIGKILL cannot be blocked. *)

val unblock : state -> mask:int -> unit
val mask : state -> int

val post : state -> signal:int -> [ `Terminate | `Queued | `Ignored ]
(** Decide what delivering [signal] does right now: terminate the
    process, stay pending (blocked), or be ignored. Pending bits are
    recorded for [`Queued] and [`Ignored]-by-handler cases. *)

val take_deliverable : state -> int option
(** A pending, now-unblocked terminating signal, if any (consumed). *)

val pending : state -> int
