(** Virtio block device model (single queue, like the paper's VM config).

    The driver communicates through a 40-byte request descriptor placed in
    DMA-visible physical memory:

    {v
      off  0  u32  type      0 = read, 1 = write, 2 = flush, 3 = FUA write
      off  4  u32  len       bytes (multiple of 512)
      off  8  u64  sector
      off 16  u64  data paddr
      off 24  u32  status    written by the device: 0 ok, 1 io error
      off 32  u64  next      paddr of the next chained descriptor, 0 = end
    v}

    Writing a descriptor's physical address to the QUEUE_NOTIFY register
    enqueues that descriptor — or, when its [next] field links further
    descriptors, the whole chain: the device walks the chain (bounded,
    loop-safe) and services every request with a single completion
    interrupt, which is where batched submission earns its doorbell/IRQ
    economy. The device DMAs through the {!Iommu}; a translation fault
    aborts the request (and, if the status word itself is unreachable,
    drops it silently — exactly the hostile-device behaviour Inv. 6
    defends the rest of memory against). Completion raises the device's
    interrupt vector. *)

type t

type disk
(** The persistent disk image: the only device state that survives a
    power cut. Distinct from the volatile write cache and ring state —
    ordinary writes land in the cache and become durable only via a
    flush (type 2) or FUA write (type 3). Carry a [disk] across a board
    reset into a fresh {!create} to model remount-after-crash. Both the
    image and the cache are kept in 4 KiB pages; a flush persists the
    cached sectors in ascending order, one crash boundary per sector,
    and hands each wholly cached page to the image instead of copying
    it. *)

val clone_disk : disk -> disk
(** Deep copy, for running the same recovery twice deterministically. *)

val create :
  ?disk:disk -> capacity_sectors:int -> mmio_base:int -> dev_id:int -> vector:int -> unit -> t
(** Registers the MMIO window, backing store, and {!Bus} entry. When
    [disk] is given the device is created around that (possibly
    crash-survived) image; otherwise a fresh zeroed image is made. *)

val disk_image : t -> disk

val persist_count : t -> int
(** Sectors made durable so far — each increment is one enumerable
    crash boundary for the ["blk.power_cut"] trigger. *)

val is_dead : t -> bool
(** The power cut fired: the device no longer answers. *)

val sector_size : int

(* Register offsets within the MMIO window. *)
val reg_capacity : int
val reg_queue_notify : int

val read_backing : t -> sector:int -> len:int -> bytes
(** Host-side read for tests and crash tooling: observes the write
    cache, then the image, as the device's own reads do. *)

val requests_completed : t -> int
