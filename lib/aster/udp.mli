(** UDP: per-port datagram sockets with blocking receive. *)

type engine

type socket

val create_engine : Netstack.t -> engine

val socket : engine -> socket

val bind : socket -> port:int -> (unit, int) result

val sendto : socket -> dst_ip:int -> dst_port:int -> buf:bytes -> pos:int -> len:int ->
  (int, int) result
(** Binds to an ephemeral port on first use. *)

val recvfrom :
  ?nonblock:bool -> socket -> buf:bytes -> pos:int -> len:int -> (int * int * int, int) result
(** Blocks; returns (bytes, src_ip, src_port). Datagrams truncate.
    [~nonblock:true] returns EAGAIN instead of blocking. *)

val pollable : socket -> Pollable.t
(** POLLIN on queued datagrams; POLLOUT always while open. *)

val close : socket -> unit
