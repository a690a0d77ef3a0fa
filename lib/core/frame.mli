(** Frames and segments with the paper's frame metadata system (§4.2).

    Every physical frame has an entry in a static metadata array holding
    its reference count, its typed/untyped state, and an optional
    client-attached metadata value (the [Frame<M>] type parameter of the
    paper, here an extensible variant). A handle ([t]) covers one frame
    (Frame) or several contiguous frames (Segment); handles are cloned
    and dropped explicitly — OCaml has no deterministic destructors, so
    dropping is part of the API contract and tests verify balance.

    The typed/untyped split is a type, as rustc makes it in Asterinas.
    {!t} is an untyped frame, which the untyped accessors read and
    write, user space may map (Inv. 5) and devices may DMA (Inv. 6).
    {!Typed.t}, OSTD's own page tables, slabs and kernel stacks, is a
    different abstract type, so passing one to {!Untyped},
    {!Vmspace.map}, {!Dma.Stream.map} or {!peek} does not compile.

    Inv. 1: a handle can only be created over currently-unused frames;
    {!from_unused} checks and flips the metadata state, so a buggy
    injected allocator cannot produce aliased frames. *)

type state = Unused | Typed | Untyped

type meta = ..
(** Client-defined per-frame metadata (page-cache status, slab headers…). *)

type t
(** A live handle on a span of untyped frames. Using a dropped handle
    panics. *)

val init_metadata : reserved_pages:int -> unit
(** Build the metadata array over all of physical memory and mark the
    first [reserved_pages] frames Typed (kernel image, boot structures). *)

val total_frames : unit -> int

val alloc : ?pages:int -> unit -> t
(** Allocate untyped frames through the injected allocator (default 1
    page). Panics with OOM if the allocator returns no memory, and
    panics if the allocator proposes frames that are not unused
    (Inv. 1). Charges the frame-allocation cost plus the ownership
    safety check. *)

val from_unused : paddr:int -> pages:int -> (t, string) result
(** Validate and claim a span proposed by the allocator as untyped. *)

val clone : t -> t
(** Share: increments every covered frame's reference count. *)

val drop : t -> unit
(** Release: decrements reference counts; frames reaching zero return to
    the injected allocator as unused. Double-drop panics. *)

val paddr : t -> int

val peek : t -> off:int -> buf:bytes -> pos:int -> len:int -> unit
(** Device-perspective read of an untyped frame's contents — what a DMA
    engine scatter-gathering the frame would see. Charges no CPU cycles:
    zero-copy TX pins frames precisely so the processor never touches
    the payload; mapping and wire costs are charged at the DMA setup and
    on the link. Panics on out-of-range spans. *)

val pages : t -> int
val size : t -> int
val is_live : t -> bool

val refcount : paddr:int -> int
val state_of : paddr:int -> state

val set_meta : t -> page:int -> meta -> unit
(** Attach metadata to the [page]-th frame of the span. *)

val get_meta : t -> page:int -> meta option

val live_handles : unit -> int
(** Number of undropped handles — leak checking in tests. *)

(** Typed (sensitive) frames. They share {!t}'s claim (Inv. 1 and its
    charge), reference counts and release; their metadata state reads
    [Typed]. *)
module Typed : sig
  type t

  val alloc : ?pages:int -> unit -> t
  (** As {!Frame.alloc}, claiming the frames as typed. *)

  val drop : t -> unit
  val paddr : t -> int
  val size : t -> int
end
