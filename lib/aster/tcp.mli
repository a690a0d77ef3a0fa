(** TCP engine.

    One engine per {!Netstack}. The guest engine is configured from the
    installed profile: the Asterinas profile models a smoltcp-style stack
    *without* congestion control (the paper's explanation for its network
    wins), while the Linux profile runs Reno-style slow start and
    congestion avoidance. Host-side client engines always run congestion
    control, like the real host's Linux stack.

    Blocking calls must run inside a task. *)

type engine

type conn

type listener

val create_engine : Netstack.t -> cc:bool -> engine

val listen : ?backlog:int -> engine -> port:int -> (listener, int) result
(** EADDRINUSE if the port is taken. [backlog] (default 128) caps the
    accept queue: SYNs arriving while it is full are dropped (counted
    as [tcp.listen_overflow]) and repaired by the client's handshake
    retransmit. *)

val accept : listener -> conn
(** Block until a connection is established. *)

val accept_opt : listener -> conn option
(** Non-blocking accept: [None] when the accept queue is empty. *)

val pending : listener -> int

val connect : engine -> dst_ip:int -> dst_port:int -> (conn, int) result
(** Block until the handshake completes (ECONNREFUSED if nothing
    listens). *)

val send : ?nonblock:bool -> conn -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** Queue bytes; blocks while the send buffer is full. EPIPE after the
    peer reset or local close. The bytes are copied, so the caller may
    reuse [buf] as soon as the call returns. *)

val send_view : conn -> Page_cache.view -> (int, int) result
(** Zero-copy sendfile: queue a view's bytes by reference, blocking
    while the send buffer is full; EPIPE after the peer reset or local
    close. The stack owns the view's pins from here on, on every path.
    Segments borrow the view's slices, and the device reads its frames
    when it stages one; a pin drops once every segment holding the
    byte it backs is acknowledged, or at a reset (counted as
    [net.zc_unpin]). A retransmit is a copy of its segment. *)

val recv : ?nonblock:bool -> conn -> buf:bytes -> pos:int -> len:int -> (int, int) result
(** Block until data arrives; 0 at end-of-stream. [~nonblock:true]
    returns EAGAIN instead of blocking on an empty buffer. [len = 0]
    means the reader's destination takes nothing: once there is data,
    EFAULT, and the bytes stay queued. *)

val set_nodelay : conn -> unit
(** TCP_NODELAY: send sub-MSS segments immediately instead of holding
    them for in-flight data (what Redis and Nginx configure). *)

val shutdown_rd : conn -> unit
(** shutdown(SHUT_RD): a read returns what is queued, then 0. *)

val close : conn -> unit

val abort : conn -> unit
(** Abortive (SO_LINGER-0 style) close: RST the peer and tear down
    immediately. The peer's readiness layer reports EPOLLERR|EPOLLHUP. *)

val pollable : conn -> Pollable.t
(** The connection's readiness seam; see DESIGN Â§4k for the level
    semantics. *)

val listener_pollable : listener -> Pollable.t
(** POLLIN while the accept queue is non-empty. *)

val peer_of : conn -> int * int
(** Remote (ip, port). *)

val conn_count : engine -> int
(** Connections the engine still tracks. One leaves once the app has
    closed it and both directions are done (each by a FIN or a
    reset). *)
