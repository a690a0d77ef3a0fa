(** A per-file page cache over untyped frames — the paper's showcase for
    custom per-frame metadata ([Frame<M>], §4.2): each cached page carries
    a dirty/uptodate state attached through {!Ostd.Frame.set_meta}, the
    way a page cache tracks memory/disk synchronisation.

    RamFS stores file contents here (so user data lives in OSTD-managed
    untyped frames, not OCaml heap buffers), and the dirty tracking is
    what a disk-backed user would drive writeback from. *)

type t

val create : unit -> t

val destroy : t -> unit
(** Drop every cached frame. *)

val pages : t -> int

val read : t -> pos:int -> buf:bytes -> boff:int -> len:int -> unit
(** Uncached (sparse) ranges read as zeroes. *)

val read_view : t -> pos:int -> len:int -> bytes * Ostd.Frame.t list
(** Zero-copy read for the sendfile-to-wire path: no copy charge, and
    each cached frame touched is returned as a cloned (refcounted) pin
    the caller must eventually {!Ostd.Frame.drop} — they keep the pages
    live while a NIC transmits out of them. Pins are counted under
    [net.zc_pin]; sparse ranges read as zeroes and pin nothing. *)

val write : t -> pos:int -> buf:bytes -> boff:int -> len:int -> room:int -> int
(** Allocates frames on demand, at most [room] of them, and marks the
    touched pages dirty. Returns the bytes written: all [len], or those
    before the first page it had no room for. *)

val truncate : t -> int -> unit
(** Free whole pages past the new size and zero the partial tail. *)

val dirty_pages : t -> int

val clean_all : t -> int
(** Clear every dirty mark (what writeback completion would do); returns
    how many pages were dirty. *)

val page_state : t -> int -> (bool * bool) option
(** (dirty, uptodate) for a page index, read back through the frame
    metadata — [None] if the page is not cached. *)
