(** The Linux syscall dispatcher.

    [install] registers the handler with {!Process}; [init_net] hands the
    dispatcher the kernel's network engines. Numbers in the advertised
    surface without a real handler return -ENOSYS through the same
    dispatch path (counted in stats), mirroring how we report the paper's
    "over 210 syscalls" honestly. *)

val init_net : Netstack.t -> Tcp.engine -> Udp.engine -> unit

val install : unit -> unit

val staging_busy : unit -> bool
(** Whether a call holds the one kernel staging buffer that regular-file
    reads and writes of at most 64 KiB, and unbounded reads, copy
    through. *)

val implemented_count : unit -> int
val implemented_numbers : unit -> int list
val is_implemented : int -> bool
