(** ProcFS: kernel-generated files (/proc). Content is produced by
    registered generators when a file is read from offset 0, and reads
    at later offsets are served from that snapshot (Linux
    [single_open] semantics); a few control files (e.g.
    /proc/ktrace) also accept writes that reconfigure the kernel. The
    /proc/kprobe directory exposes loaded probe programs
    ([programs], [<name>/maps], [<name>/insns]). *)

val create_root : unit -> Vfs.inode

val register : string -> (unit -> string) -> unit
(** Add or replace a /proc entry. Standard entries (meminfo, uptime,
    version, syscalls) are registered by {!create_root}. *)
