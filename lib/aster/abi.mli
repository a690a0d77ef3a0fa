(** Shared binary layouts of the simulated Linux ABI — the "header file"
    both the kernel and the user-side libc shim compile against.

    struct stat (48 bytes):
    {v
      0  u64 ino        16 u32 mode      24 u8  kind
      8  u64 size       20 u32 nlink     32 u64 mtime_ns
    v}

    sockaddr_in (8 bytes): u16 family=2, u16 port, u32 ip.
    sockaddr_un: u16 family=1, NUL-terminated path.
    timespec (16 bytes): u64 sec, u64 nsec.
    iovec (16 bytes): u64 base, u64 len. *)

val af_unix : int
val af_inet : int
val sock_stream : int
val sock_dgram : int

val stat_size : int

type stat = { ino : int; size : int; mode : int; nlink : int; kind : int; mtime_ns : int64 }

val kind_code : Vfs.kind -> int

val encode_stat : stat -> bytes
val decode_stat : bytes -> stat

val encode_sockaddr_in : port:int -> ip:int -> bytes
val encode_sockaddr_un : string -> bytes

type sockaddr = Addr_in of { port : int; ip : int } | Addr_un of string

val decode_sockaddr : bytes -> sockaddr option

val encode_timespec : sec:int64 -> nsec:int64 -> bytes
val decode_timespec : bytes -> int64 * int64

(** Directory entries from getdents64 (simplified):
    u64 ino, u8 type, u8 namelen, name bytes. *)

val encode_dirents : (string * int * Vfs.kind) list -> bytes
val decode_dirents : bytes -> (int * int * string) list
(** (ino, kind code, name) triples. *)

val dirent_len : bytes -> int -> int
(** The length of the whole entry that starts at the given offset of an
    encoded listing, or 0 when none does. *)
