(** A tiny libc for simulated user programs.

    Programs receive a raw {!Ostd.User.uapi} (syscalls + their own memory
    and nothing else); this shim layers buffer marshalling and friendly
    wrappers on top, like glibc does over the real ABI. All data still
    crosses the user/kernel boundary through user memory and integer
    registers.

    Fork/exec note (documented in DESIGN.md): OCaml continuations cannot
    be duplicated, so [fork] ships the child's body as a closure through
    a token table that stands in for "the program text after fork"; the
    kernel still performs the real work (COW address-space duplication,
    process creation). *)

type t

val make : Ostd.User.uapi -> t
(** Sets up a scratch arena via mmap. *)

val install_child_resolver : unit -> unit
(** Register the fork-token resolver with the kernel. Idempotent; called
    by workloads' mains. *)

val raw : t -> Ostd.User.uapi

(** {2 User memory} *)

val ualloc : t -> int -> int
(** Persistent user buffer (mmap-backed); returns its vaddr. *)

val put_bytes : t -> bytes -> int
(** Copy into short-lived scratch; valid until a few more libc calls. *)

val put_string : t -> string -> int
(** NUL-terminated scratch string. *)

val get_bytes : t -> int -> int -> bytes

(** {2 Syscall wrappers (return negative errno on failure)} *)

val syscall : t -> int -> int64 array -> int

val openf : t -> string -> flags:int -> mode:int -> int
val close : t -> int -> int
val read : t -> fd:int -> vaddr:int -> len:int -> int
val write : t -> fd:int -> vaddr:int -> len:int -> int
val read_str : t -> fd:int -> len:int -> string
(** Convenience: read via scratch; empty string on EOF/error. *)

val write_str : t -> fd:int -> string -> int
val pread : t -> fd:int -> vaddr:int -> len:int -> off:int -> int
val pwrite : t -> fd:int -> vaddr:int -> len:int -> off:int -> int
val lseek : t -> fd:int -> off:int -> whence:int -> int
val stat : t -> string -> (Aster.Abi.stat, int) result
val fstat : t -> int -> (Aster.Abi.stat, int) result
val unlink : t -> string -> int
val mkdir : t -> string -> int
val rmdir : t -> string -> int
val rename : t -> string -> string -> int
val fsync : t -> int -> int
val ftruncate : t -> fd:int -> len:int -> int
val chdir : t -> string -> int
val getcwd : t -> string
val getdents : t -> fd:int -> (int * int * string) list
val pipe : t -> (int * int, int) result
val dup2 : t -> int -> int -> int
val access : t -> string -> int
val symlink : t -> target:string -> linkpath:string -> int
val readlink : t -> string -> (string, int) result
val mmap : t -> len:int -> int
val munmap : t -> addr:int -> len:int -> int
val brk : t -> int -> int

val getpid : t -> int
val getppid : t -> int
val sched_yield : t -> int
val nanosleep_us : t -> float -> int
val clock_monotonic_ns : t -> int64

val clock_process_cputime_ns : t -> int64
(** clock_gettime(CLOCK_PROCESS_CPUTIME_ID): CPU time consumed, ns. *)

type rusage = {
  ru_utime_us : int64;
  ru_stime_us : int64;
  ru_nvcsw : int64;
  ru_nivcsw : int64;
}

val getrusage : ?who:int -> t -> rusage option
(** getrusage(2); [who] defaults to RUSAGE_SELF. *)

type tms = { tms_utime : int64; tms_stime : int64; tms_uptime : int64 }

val times : t -> tms
(** times(2): utime/stime and uptime in CLK_TCK (100Hz) ticks. *)

val uname : t -> string

val fork : t -> (Ostd.User.uapi -> int) -> int
(** Returns the child pid (the child runs the closure). *)

val clone_thread : t -> (Ostd.User.uapi -> int) -> int
val execve : t -> string -> string list -> int
val exit : t -> int -> 'a
val waitpid : t -> (int * int, int) result

val socket : t -> domain:int -> typ:int -> int
val bind_inet : t -> fd:int -> port:int -> int
val bind_unix : t -> fd:int -> path:string -> int
val listen : t -> fd:int -> backlog:int -> int
val accept : t -> fd:int -> int

val accept4 : t -> fd:int -> flags:int -> int
(** accept4(2); pass [o_nonblock] (SOCK_NONBLOCK) to get a non-blocking
    connection fd in one call. *)

val fcntl_setfl : t -> fd:int -> flags:int -> int

val o_nonblock : int

val set_nonblock : t -> fd:int -> int
(** F_GETFL/F_SETFL round trip adding O_NONBLOCK. *)

(** {2 Readiness: poll(2) and epoll(7)} *)

val pollin : int
val pollout : int
val pollerr : int
val pollhup : int
val pollnval : int
val pollrdhup : int

val poll : t -> (int * int) list -> timeout_ms:int -> (int * (int * int) list, int) result
(** poll(2) over (fd, events) pairs; returns the ready count and every
    fd's revents in input order. *)

val epollin : int
val epollout : int
val epollerr : int
val epollhup : int
val epollrdhup : int
val epolloneshot : int
val epollet : int
val epoll_ctl_add : int
val epoll_ctl_del : int
val epoll_ctl_mod : int

val epoll_create1 : t -> int

val epoll_ctl : t -> epfd:int -> op:int -> fd:int -> events:int -> data:int64 -> int
(** Stages a packed 12-byte epoll_event in scratch. *)

val epoll_wait :
  t -> epfd:int -> maxevents:int -> timeout_ms:int -> (int * (int64 * int) list, int) result
(** Returns the ready count and (data, events) pairs. [timeout_ms < 0]
    blocks indefinitely; [0] is a non-blocking probe. *)

val connect_inet : t -> fd:int -> ip:int -> port:int -> int
val connect_unix : t -> fd:int -> path:string -> int
val sendto_inet : t -> fd:int -> ip:int -> port:int -> vaddr:int -> len:int -> int
val recvfrom : t -> fd:int -> vaddr:int -> len:int -> int
val sendfile : t -> out_fd:int -> in_fd:int -> count:int -> int
val shutdown : t -> fd:int -> int
val set_nodelay : t -> fd:int -> int
val mkfifo : t -> string -> int
val kill : t -> pid:int -> signal:int -> int

val signal_ignore : t -> int -> int
(** sigaction(sig, SIG_IGN). *)

val sigblock : t -> int -> int
(** Block one signal number. *)

val sigunblock : t -> int -> int
val sigpending : t -> int

val probe_load : t -> string -> int
(** probe_load(2): load a probe program from its text form; returns its
    load-order id, or -EINVAL if the parser/verifier rejects it (the
    reason is readable from /proc/kprobe/programs). *)

val probe_read : t -> string -> (string, int) result
(** probe_read(2) looped to EOF: the program's rendered map tables. *)

val span_begin : t -> cls:string -> name:string -> int
(** span_begin(2): open a kspan request span on the calling task;
    returns its id (0 when tracking is disabled or a span is already
    active — spans do not nest). *)

val span_end : t -> int -> int
(** span_end(2): seal the span. [span_end t 0] is a no-op. *)
