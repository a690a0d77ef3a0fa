(** Unix-domain stream sockets: an in-kernel byte channel between two
    endpoints, with a filesystem-bound listener namespace. Buffer size
    and per-op cost follow the installed profile, which is where the
    bw_unix gap between the kernels comes from. *)

type endpoint

val socketpair : unit -> endpoint * endpoint

type listener

val listen : path:string -> (listener, int) result
val connect : path:string -> (endpoint, int) result
val accept : listener -> endpoint

(** Non-blocking accept: [None] when the backlog is empty. *)
val accept_opt : listener -> endpoint option
val close_listener : listener -> unit

val send : ?nonblock:bool -> endpoint -> buf:bytes -> pos:int -> len:int -> (int, int) result
val recv : ?nonblock:bool -> endpoint -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** As {!Pipe.read}, [len = 0] included. *)

val close : endpoint -> unit
val readable : endpoint -> bool

val pollable : endpoint -> Pollable.t
(** Endpoint readiness: POLLIN on buffered bytes or EOF, POLLOUT on
    send-ring space, POLLHUP|POLLRDHUP once either side closed. *)

val listener_pollable : listener -> Pollable.t

val reset_namespace : unit -> unit
