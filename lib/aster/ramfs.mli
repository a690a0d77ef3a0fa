(** RamFS: an in-memory file system (the paper mounts one for lmdd and as
    the root). File contents live in OSTD untyped frames through
    {!Page_cache}, so user data is held in framework-managed memory with
    per-frame dirty metadata — never in plain OCaml buffers. *)

val create_root : unit -> Vfs.inode
(** A new file system, whose files may hold half of the boot's frames,
    as tmpfs's default size allows: a write past that writes what fits,
    or answers ENOSPC if nothing does. *)

val space : unit -> int * int
(** The page limit and the pages still free under it. *)

val file_cache : Vfs.inode -> Page_cache.t option
(** The frame-backed page cache of a regular file. *)

val file_view : Vfs.inode -> pos:int -> len:int -> Page_cache.view option
(** Zero-copy read for sendfile-to-wire: a view of up to [len] bytes,
    clamped to the file length, whose pins the caller must drop (see
    {!Page_cache.view}). Nothing is copied. [None] at EOF or when the
    inode is not a RamFS regular file. *)
