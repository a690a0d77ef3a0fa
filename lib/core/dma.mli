(** DMA mappings over untyped memory only (Inv. 6), plus the pooling
    optimisation the paper credits for its IOMMU performance (§5, Fig. 6).

    A mapping grants one device DMA access to the frames of an untyped
    handle. {!Stream.map} takes a {!Frame.t}, so mapping typed memory
    ({!Frame.Typed.t}) does not compile: kernel stacks and page tables
    are unreachable by peripherals even with the IOMMU disabled — and
    with it enabled, the IOMMU enforces the same boundary against a
    hostile device. Streams own their frame; [unmap] drops it and
    invalidates IOTLB entries (the cost dynamic mapping pays per I/O and
    pooling pays once). *)

module Stream : sig
  type t

  val map : Frame.t -> dev:int -> t
  (** Takes ownership of the untyped handle. Charges dma_map and
      updates the device's IOMMU domain. *)

  val paddr : t -> int
  (** Bus address for the driver to place in descriptors. *)

  val size : t -> int
  val frame : t -> Frame.t

  val fill : t -> off:int -> buf:bytes -> pos:int -> len:int -> unit
  (** Device-visible placement of bytes sourced from externally-pinned
      frames (zero-copy TX). No per-byte CPU cycles are charged — the
      caller pays {!charge_zc_map} and whatever header copy it still
      performs. Panics on out-of-range spans. *)

  val sync_to_device : t -> off:int -> len:int -> unit
  (** Streaming-DMA cache sync before device reads (cost only). *)

  val sync_from_device : t -> off:int -> len:int -> unit

  val unmap : t -> unit
  (** Revoke and drop the frame. *)
end

val charge_zc_map : unit -> unit
(** Charge making one zero-copy pinned payload visible to a device:
    the same per-mapping cost {!Stream.map} pays (IOMMU domain update,
    or cheap bookkeeping without translation). *)

val charge_zc_unmap : unit -> unit
(** Charge revoking a zero-copy payload mapping at TX completion,
    mirroring {!Stream.unmap} (includes IOTLB invalidation with the
    IOMMU on). *)

module Coherent : sig
  type t

  val alloc : pages:int -> dev:int -> t
  (** Allocate fresh untyped frames already mapped for the device. *)

  val paddr : t -> int
  val frame : t -> Frame.t
  val free : t -> unit
end

module Pool : sig
  (** Persistent-mapping pool: buffers are mapped once at initialisation
      and recycled, so steady-state I/O performs no IOMMU map/unmap and
      keeps its IOTLB entries warm. *)

  type t

  val create : dev:int -> buf_pages:int -> count:int -> t

  val buffers : t -> int

  val alloc : t -> Stream.t option
  (** A pre-mapped buffer, or [None] if the pool is exhausted. *)

  val release : t -> Stream.t -> unit
  (** Return a buffer to the pool (no unmap). *)

  val destroy : t -> unit
end
