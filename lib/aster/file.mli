(** Open file descriptions and per-process fd tables. *)

type sock_kind = Inet_stream | Inet_dgram | Unix_stream

type sock_state =
  | S_unbound
  | S_tcp_listener of Tcp.listener
  | S_tcp_conn of Tcp.conn
  | S_udp of Udp.socket
  | S_unix_listener of Unix_sock.listener
  | S_unix_conn of Unix_sock.endpoint

type sock = {
  kind : sock_kind;
  mutable st : sock_state;
  mutable bport : int option;  (* bound inet port *)
  mutable upath : string option;  (* bound unix path *)
}

type desc =
  | Inode_file of Vfs.inode
  | Pipe of { ch : Channel.t; pb : Pollable.t; fifo : Vfs.inode option }
  | Socket of sock
  | Epoll of Epoll.t

type t = {
  mutable desc : desc;
  mutable pos : int;
  mutable flags : int;
  mutable refs : int;
  mutable wb_sample : int;
      (** errseq_t sample taken at open: fsync reports writeback errors
          newer than this, independently of other observers *)
}

val o_wronly : int
val o_rdwr : int
val o_nonblock : int
val o_append : int

val setfl_mask : int
(** The flags F_SETFL may change: O_APPEND and O_NONBLOCK. *)

val readable : t -> bool
val writable : t -> bool
(** What the access mode lets read(2) and write(2) do. *)

val make : desc -> flags:int -> t
(** A description of an inode holds it open ({!Vfs.opened}) until its
    last reference goes; one of a channel holds the sides its access
    mode names. *)

val pipe : Channel.t -> fifo:Vfs.inode option -> flags:int -> t
(** An open file of a channel: its poll bits are those of the sides it
    holds ({!Channel.level}). *)

val fifo : Vfs.inode -> flags:int -> t
(** An open file of a FIFO, on the FIFO's channel, made at the first
    open after none was left. *)

val tcp_conn_of : t -> Tcp.conn option
(** The established TCP connection behind a socket descriptor, if any —
    the zero-copy sendfile path needs the connection itself to attach
    page-cache pins to the send. *)

val get : t -> unit
(** Increment the reference count (dup, fork). *)

val put : t -> unit
(** Decrement; the last reference releases the underlying object (pipe
    end close, socket close). *)

module Table : sig
  type file = t

  type t

  val create : unit -> t
  val clone : t -> t
  (** Share open files (fork): every file's refcount rises. *)

  val lookup : t -> int -> file option
  val install : t -> file -> int
  (** Lowest free descriptor. Charges the fd-lookup cost on use. *)

  val install_at : t -> int -> file -> unit
  (** dup2: closes whatever was there. *)

  val close : t -> int -> (unit, int) result
  val close_all : t -> unit
  val count : t -> int

  val fold : t -> (int -> file -> 'a -> 'a) -> 'a -> 'a
  (** Fold over (fd, file) pairs, cost-free (procfs fdinfo rendering). *)
end
