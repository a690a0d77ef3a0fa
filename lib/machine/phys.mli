(** Simulated physical memory.

    Memory is an array of 4 KiB frames whose backing bytes are allocated
    lazily. Addresses are plain ints (the simulated machine is well under
    62 bits of physical space). This module performs no protection checks
    of its own: it is raw hardware, and anything that can name a physical
    address can scribble on it — exactly the property OSTD's frame
    ownership and the IOMMU exist to discipline. *)

val page_size : int

val init : frames:int -> unit
(** (Re)initialise physical memory with the given number of frames. *)

val nframes : unit -> int

val size : unit -> int
(** Total bytes of physical memory. *)

val valid : paddr:int -> len:int -> bool
(** Whether a byte range lies inside physical memory. *)

val read : paddr:int -> bytes -> off:int -> len:int -> unit
(** Copy simulated memory into an OCaml buffer. Raises [Invalid_argument]
    on an out-of-range physical address. *)

val write : paddr:int -> bytes -> off:int -> len:int -> unit

val fill : paddr:int -> len:int -> char -> unit

val copy : src:int -> dst:int -> len:int -> unit
(** Copy [len] bytes of simulated memory from physical address [src] to
    [dst], frame to frame with no intermediate buffer. Overlapping
    ranges copy as [memmove] does: the destination ends up holding the
    source's bytes as they were before the call. Raises
    [Invalid_argument] when either range leaves physical memory. *)

val read_u8 : int -> int
val write_u8 : int -> int -> unit
val read_u32 : int -> int
val write_u32 : int -> int -> unit
val read_u64 : int -> int64
val write_u64 : int -> int64 -> unit
