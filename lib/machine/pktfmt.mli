(** On-wire packet byte layout, shared by {!Aster.Packet} (the kernel's
    view) and {!Virtio_net} (the device model's view). The device model
    needs it to implement TSO splitting and checksum offload on raw
    frames without reaching into kernel objects. *)

val header_size : int

val cksum_off : int

val mss : int
(** Wire maximum segment payload, bytes. *)

val fin : int
val psh : int
(** The flag bits (offset 9) a TSO splitter strips from non-final
    sub-frames. *)

val seal : bytes -> unit
(** Store the frame's checksum in the checksum word (frames of at least
    [header_size] bytes): the NIC's TX checksum. It is FNV-1a over the
    frame's little-endian 32-bit words, checksum word skipped, in four
    lanes (one per word of each 16-byte block) folded in order, with
    the tail serial. Frames of equal length that differ in one word or
    one byte never share a checksum. *)

val cksum_ok : bytes -> bool
(** Verification in place: [true] iff the frame is well-formed, its
    length word matches its size and its stored checksum matches — the
    verdict a checksum-offloading NIC hands the driver. *)

val tso_frames : gso_size:int -> len:int -> int
(** How many wire frames {!tso_split} cuts a [len]-byte super-segment
    into. *)

val tso_split :
  gso_size:int -> len:int -> (int -> bytes -> int -> int -> unit) -> (bytes -> unit) -> unit
(** [tso_split ~gso_size ~len read emit] splits an encoded super-segment
    of [len] bytes, read through [read src dst dst_off n] (e.g.
    [Bytes.blit raw]), into sealed wire frames of at most [gso_size]
    payload bytes each, handing each fresh frame to [emit] before the
    next is cut: sequence numbers advance per chunk, lengths are
    rewritten, FIN/PSH ride only on the final sub-frame. A frame within
    [gso_size], or any frame when [gso_size] is 0, goes out whole. *)
