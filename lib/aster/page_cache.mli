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

type view
(** A sendfile view: a read-only sequence of pinned page-cache slices
    (frame, offset, length), one per page of a byte range. It gives out
    no frame and nothing writes through it; {!view_blit} reads it. Each
    cached page is pinned by a cloned handle, counted under
    [net.zc_pin], so the view's bytes outlive a truncate or an unlink of
    the file; {!unpin} drops each pin exactly once, under
    [net.zc_unpin]. *)

val view : t -> pos:int -> len:int -> view
(** Pin the cached pages of [[pos, pos + len)] without copying a byte
    or charging a copy. Holes pay the zero fill, pin nothing and read
    as zeroes. *)

val view_length : view -> int

val pinned : view -> bool
(** Whether any page of the view was cached, so pinned. *)

val view_blit : view -> pos:int -> buf:bytes -> boff:int -> len:int -> unit
(** Read the view's bytes [[pos, pos + len)] into [buf] at [boff], as
    the device sees the frames ({!Ostd.Frame.peek}): no copy charge. *)

val unpin : view -> upto:int -> unit
(** Drop the pin of every slice that ends at or before byte [upto],
    once the view is lent to no segment. *)

val lend : view -> unit
(** A segment that reads the view waits to be staged: no pin drops
    until it is given back. *)

val give_back : view -> unit
(** The segment has been staged; unpins due meanwhile happen now. *)

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
