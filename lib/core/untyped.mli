(** The untyped-memory reader/writer interface (paper §4.2).

    Untyped memory is externally modifiable (user-mapped or DMA-capable),
    so it can never back a typed reference; the only operations are
    copying plain-old-data values in and out. Every access performs a
    boundary check (charged per Table 8). Every operation takes a
    {!Frame.t}, which is untyped by its type: a typed frame
    ({!Frame.Typed.t}) does not compile here, as [UFrame<M>]'s trait
    bound rejects one in Rust. *)

val read_bytes : Frame.t -> off:int -> buf:bytes -> pos:int -> len:int -> unit
(** Copy out of untyped memory. Panics on an out-of-bounds range. *)

val write_bytes : Frame.t -> off:int -> buf:bytes -> pos:int -> len:int -> unit

val fill : Frame.t -> off:int -> len:int -> char -> unit

val read_u8 : Frame.t -> off:int -> int
val write_u8 : Frame.t -> off:int -> int -> unit
val read_u32 : Frame.t -> off:int -> int
val write_u32 : Frame.t -> off:int -> int -> unit
val read_u64 : Frame.t -> off:int -> int64
val write_u64 : Frame.t -> off:int -> int64 -> unit

val copy : src:Frame.t -> src_off:int -> dst:Frame.t -> dst_off:int -> len:int -> unit
(** Untyped-to-untyped copy (page-cache moves, bounce buffers), frame to
    frame with no staging buffer. Both handles are guarded and charged
    as by {!read_bytes} and {!write_bytes}. Overlapping ranges (the same
    frame, or adjacent frames of one allocation) copy as [memmove]
    does. *)
