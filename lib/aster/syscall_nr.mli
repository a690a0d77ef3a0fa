(** x86-64 Linux syscall numbers and the ABI surface table.

    [registered] lists the full surface Asterinas advertises (the paper's
    "over 210 system calls"); [implemented] marks the subset this
    reproduction gives real semantics — everything else dispatches to an
    explicit ENOSYS handler so the table and dispatch path are exercised
    honestly. *)

val read : int
val write : int
val open_ : int
val close : int
val stat : int
val fstat : int
val lstat : int
val poll : int
val lseek : int
val mmap : int
val mprotect : int
val munmap : int
val brk : int
val ioctl : int
val pread64 : int
val pwrite64 : int
val readv : int
val writev : int
val access : int
val pipe : int
val sched_yield : int
val dup : int
val dup2 : int
val nanosleep : int
val getpid : int
val sendfile : int
val socket : int
val connect : int
val accept : int
val sendto : int
val recvfrom : int
val shutdown : int
val bind : int
val listen : int
val getsockname : int
val socketpair : int
val setsockopt : int
val getsockopt : int
val fork : int
val execve : int
val exit : int
val wait4 : int
val kill : int
val uname : int
val fcntl : int
val flock : int
val fsync : int
val fdatasync : int
val truncate : int
val ftruncate : int
val getdents : int
val getcwd : int
val chdir : int
val rename : int
val mkdir : int
val rmdir : int
val creat : int
val link : int
val unlink : int
val symlink : int
val readlink : int
val chmod : int
val chown : int
val umask : int
val gettimeofday : int
val getrlimit : int
val getrusage : int
val times : int
val getuid : int
val getgid : int
val geteuid : int
val getegid : int
val getppid : int
val setsid : int
val gettid : int
val time : int
val getdents64 : int
val clock_gettime : int
val clock_nanosleep : int
val exit_group : int
val openat : int
val mkdirat : int
val newfstatat : int
val unlinkat : int
val renameat : int
val epoll_wait : int
val epoll_ctl : int
val accept4 : int
val epoll_create1 : int
val pipe2 : int
val getrandom : int
val rt_sigaction : int
val rt_sigprocmask : int
val rt_sigpending : int
val mknod : int
val statfs : int
val fchdir : int
val sync : int
val dup3 : int

val span_begin : int
(** kspan request boundary: open a span ([cls_ptr], [name_ptr]) on the
    calling task; returns the span id. *)

val span_end : int
(** Seal the span whose id is arg0. *)

val probe_load : int
(** bpf(2)-lite: load a probe program from its text form. *)

val probe_read : int
(** bpf(2)-lite: read a loaded program's rendered map contents. *)

val name : int -> string
(** Symbolic name for a registered number; "sys_<n>" otherwise. Built
    once for every number in the ABI surface, so dispatch never
    allocates. *)

val scope_name : int -> string
(** kprof scope label and syscall latency histogram key,
    ["syscall.<name>"]; built once like {!name}. *)

val registered : int list
(** Every syscall number in the advertised ABI surface. *)

val registered_count : int
