(** A static-file HTTP/1.0 server in the spirit of the paper's Nginx
    workload: accept, parse the request line, respond with headers and
    sendfile(2) of the requested document, close.

    Both profiles send the file zero-copy with GSO, so Asterinas's
    advantage is its cheaper per-connection path: clear at 4 KiB, gone
    at 64 KiB, where the wire bounds both kernels (Fig. 5a). *)

val port : int

val server : requests:int -> Libc.t -> int
(** Serve exactly [requests] connections, then exit. Charges a small
    per-request user-space cost (parsing, logging). Each worker runs its
    own epoll loop over the shared non-blocking listener. *)

val spawn : requests:int -> sizes:(string * int) list -> unit -> unit
(** Boot-side helper: spawn the server process with its docroot. *)
