(** The Linux syscall dispatcher.

    [install] registers the handler with {!Process}; [init_net] hands the
    dispatcher the kernel's network engines. Numbers in the advertised
    surface without a real handler return -ENOSYS through the same
    dispatch path (counted in stats), mirroring how we report the paper's
    "over 210 syscalls" honestly. *)

val init_net : Netstack.t -> Tcp.engine -> Udp.engine -> unit

val install : unit -> unit

val staging_busy : unit -> bool
(** Whether a live task holds the one kernel staging buffer. Every data
    syscall moves its bytes through it, 64 KiB at a time: [read],
    [pread64], [readv], [recvfrom], [getrandom], [write], [pwrite64],
    [writev], [sendto] and sendfile's bounce loop. A task killed while
    holding it no longer does. *)

val implemented_count : unit -> int
val implemented_numbers : unit -> int list
