(** Processes: the user-visible unit of execution.

    Each process owns an {!Mm}, an fd table, a cwd, one or more kernel
    tasks (threads), and a user thread per task. The syscall dispatcher
    is injected by {!Syscalls} to break the layering cycle; the
    fork-child resolver is injected by the user-side libc shim, because
    the trap ABI can only carry integers while the simulated child body
    is a closure (see DESIGN.md). *)

type t

type action =
  | Ret of int64       (** normal syscall return value *)
  | Exec_done          (** execve replaced the image; resume fresh *)
  | Terminated         (** the process exited inside the syscall *)

val pid : t -> int
val comm : t -> string
val mm : t -> Mm.t
val fdt : t -> File.Table.t
val cwd : t -> Vfs.resolved
val set_cwd : t -> Vfs.resolved -> unit
val umask : t -> int
val set_umask : t -> int -> unit
val parent_pid : t -> int

val set_syscall_handler : (t -> int -> int64 array -> action) -> unit

val set_child_resolver : (int64 -> (Ostd.User.uapi -> int) option) -> unit
(** Resolve a fork token into the child's body. *)

val resolve_child : int64 -> (Ostd.User.uapi -> int) option

val spawn_kernel_style : name:string -> (Ostd.User.uapi -> int) -> t
(** Spawn a process from a closure (used by tests and workloads that are
    not registry programs). *)

val fork_current : t -> child:(Ostd.User.uapi -> int) -> int
(** Fork: COW address space, shared-by-value fd table; returns the child
    pid. *)

val spawn_thread : t -> body:(Ostd.User.uapi -> int) -> int
(** Clone with shared mm and fd table (a thread); returns its tid-pid. *)

val do_exec : t -> string -> string list -> (unit, int) result
(** Replace the image (new mm, fresh user thread from the registry). *)

val do_exit : t -> int -> 'a
(** Terminate the calling process's task; never returns in its task. *)

val wait_child : t -> (int * int, int) result
(** Block until a child exits; returns (pid, status). ECHILD if none. *)

val signals : t -> Signal.state

val deliver_signal : t -> int -> unit
(** kill(2) semantics: terminate, queue, or ignore per the target's
    dispositions and mask; terminating the calling process raises. *)

val current : unit -> t
(** The process whose task is running. *)

val by_pid : int -> t option
val alive_count : unit -> int

val task : t -> Ostd.Task.t option
(** The kernel task carrying this process (None before start). *)

val all : unit -> t list
(** Every live or zombie process, sorted by pid. *)

val spawned_count : unit -> int
(** Processes ever created (the /proc/stat [processes] line). *)

val reset : unit -> unit
