(** Unix-domain stream sockets: two endpoints joined by two channels,
    one per direction, with a filesystem-bound listener namespace. *)

type endpoint = {
  rx : Channel.t;  (** holds its read side *)
  tx : Channel.t;  (** holds its write side *)
  pollable : Pollable.t;
      (** POLLIN on queued bytes or a shut [rx], POLLRDHUP while [rx] is
          shut, POLLHUP once both are, POLLOUT while [tx] has room. *)
}

val socketpair : unit -> endpoint * endpoint

val shutdown : endpoint -> rd:bool -> wr:bool -> unit
(** shutdown(2): [rd] shuts [rx], [wr] shuts [tx]. *)

val close : endpoint -> unit

type listener

val listen : path:string -> (listener, int) result
val connect : path:string -> (endpoint, int) result
val accept : listener -> endpoint

(** Non-blocking accept: [None] when the backlog is empty. *)
val accept_opt : listener -> endpoint option
val close_listener : listener -> unit
val listener_pollable : listener -> Pollable.t

val reset_namespace : unit -> unit
