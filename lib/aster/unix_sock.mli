(** Unix-domain stream sockets: two endpoints joined by two channels,
    one per direction, with a filesystem-bound listener namespace. *)

type endpoint = {
  rx : Channel.t;  (** holds its read side *)
  tx : Channel.t;  (** holds its write side *)
  pollable : Pollable.t;
      (** POLLIN on queued bytes or a shut [rx], POLLRDHUP while [rx] is
          shut, POLLHUP once both are, POLLERR while [reset], POLLOUT
          while [tx] has room. *)
  reset : bool ref;
      (** ECONNRESET is pending: the peer was released with bytes of
          ours unread, or before it was accepted. *)
  peer_reset : bool ref;  (** the peer's [reset] *)
}

val socketpair : unit -> endpoint * endpoint

val shutdown : endpoint -> rd:bool -> wr:bool -> unit
(** shutdown(2): [rd] shuts [rx], [wr] shuts [tx]. *)

val read :
  ?nonblock:bool -> endpoint -> first:bool -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** {!Channel.read} of [rx]; where that answers end of stream and
    [reset] is pending, the first chunk of a call answers ECONNRESET
    instead and clears it. *)

val close : endpoint -> unit
(** Release: the bytes queued towards this endpoint are discarded, which
    frees the peer's send room; if there were any, the peer's [reset]
    is set. Both channels shut. *)

type listener

val listen : path:string -> (listener, int) result
val connect : path:string -> (endpoint, int) result
val accept : listener -> endpoint

val accept_opt : listener -> endpoint option
(** Non-blocking accept: [None] when the backlog is empty. *)

val close_listener : listener -> unit
(** Unbind the path and release every connection still in the backlog:
    each client's [reset] is set and its channels shut. *)

val listener_pollable : listener -> Pollable.t

val reset_namespace : unit -> unit
