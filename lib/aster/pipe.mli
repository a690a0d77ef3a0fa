(** Pipes and FIFOs: a ring buffer with blocking reader/writer ends.

    Capacity follows the installed profile ([pipe_buffer]); each
    operation charges the per-op pipe cost beyond syscall and copy costs,
    and wake-ups are what drive the lat_pipe / bw_pipe shape. *)

type t

val create : unit -> t

val available : t -> int
(** Bytes currently buffered. *)

val close_read : t -> unit
val close_write : t -> unit

val read : ?nonblock:bool -> t -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** Blocks while empty (unless the write end is closed -> 0);
    [~nonblock:true] returns EAGAIN instead of blocking. [len = 0]
    means the reader's destination takes nothing: once there is data,
    EFAULT, and the bytes stay queued. *)

val write : ?nonblock:bool -> t -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** Blocks while full; EPIPE once the read end is closed.
    [~nonblock:true] writes what fits (EAGAIN if nothing does). *)

val readable : t -> bool
val writable : t -> bool

val rd_pollable : t -> Pollable.t
(** Read end: POLLIN on buffered bytes, POLLHUP on writer close. *)

val wr_pollable : t -> Pollable.t
(** Write end: POLLOUT on free space, POLLERR on reader close. *)
