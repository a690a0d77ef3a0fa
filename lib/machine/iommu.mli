(** IOMMU: DMA remapping with a small IOTLB.

    Each peripheral gets a device domain; a DMA access outside the pages
    mapped into the domain faults instead of reaching memory (Inv. 6).
    Translation charges an IOTLB hit or a page-walk miss per page touched;
    unmapping invalidates the corresponding IOTLB entries — this is what
    makes the paper's DMA pooling optimisation visible (Fig. 6). When the
    IOMMU is disabled, every access passes untranslated and uncharged. *)

val reset : unit -> unit

val set_enabled : bool -> unit
val enabled : unit -> bool

val map : dev:int -> paddr:int -> len:int -> unit
(** Grant a device DMA access to the pages covering [paddr, paddr+len). *)

val unmap : dev:int -> paddr:int -> len:int -> unit
(** Revoke, invalidating IOTLB entries for those pages. *)

val access : dev:int -> paddr:int -> len:int -> (unit, string) result
(** Translate a device access. Charges IOTLB hits/misses. On a fault the
    access does not reach memory and the fault is counted
    ("iommu.fault"). *)

val hits : unit -> int
val misses : unit -> int
