(** The one byte stream under pipes, FIFOs and unix stream sockets: a
    ring of the profile's [ipc_buffer] bytes with a read side and a
    write side.

    Each side counts its openers and has a shut flag of its own: it
    shuts when its last opener closes or at shutdown(2), and a new
    opener opens it again. Once either side is shut the channel is
    {!is_shut}: a read drains what is queued and then returns 0, and a
    write answers EPIPE. *)

type t

type kind =
  | Pipe  (** an operation charges [pipe_op] *)
  | Socket  (** [unix_op], plus a second user copy on [unix_double_copy] *)

type side = Rd | Wr

val create : kind -> t
(** An empty channel with no openers. *)

val open_ : t -> side -> Pollable.t -> unit
(** Count an opener of [side], which opens it; each edge of the
    channel reaches the opener's pollable until it closes. *)

val close : t -> side -> Pollable.t -> unit
(** The opener is gone; the side's last one shuts it. *)

val shut : t -> side -> unit
(** Every waiter wakes and every opener sees the edge. *)

val openers : t -> int
val is_shut : t -> bool
val queued : t -> int
val full : t -> bool

val level : t -> side -> int
(** A pipe or FIFO file's poll bits for one side it holds: POLLIN on
    queued bytes and POLLHUP once shut, or POLLOUT on free space and
    POLLERR once shut. *)

val discard : t -> int
(** Throw out the queued bytes, freeing their room; returns how many. *)

val read : ?nonblock:bool -> t -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** Blocks while empty and not shut; [~nonblock:true] answers EAGAIN
    instead. [len = 0] means the reader's destination takes nothing:
    once bytes are queued, EFAULT, and they stay queued. *)

val write : ?nonblock:bool -> t -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** Blocks while full, chunk by chunk; EPIPE once shut, unless bytes
    went in first. [~nonblock:true] writes what fits (EAGAIN if nothing
    does). *)
