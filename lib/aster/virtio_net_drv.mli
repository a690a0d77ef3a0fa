(** Virtio network driver (de-privileged, OSTD-API-only).

    Wires a {!Netstack}'s external route to the virtio NIC: the
    per-packet path and the scatter-gather burst path (one descriptor
    chain linked through the u64 next field, one doorbell with virtio
    event suppression, one coalesced completion interrupt reaped in the
    bottom half). With DMA pooling on (Asterinas default), TX and RX
    buffers are mapped once and recycled — the paper credits exactly
    this for the NIC's near-zero IOMMU overhead; without it every packet
    pays map/unmap plus IOTLB invalidation (Fig. 6).

    The NIC offloads are the only path: every TX descriptor carries a
    TSO record (the device cuts super-segments into MSS wire frames),
    RX trusts the device's checksum verdict, and under NAPI polling
    ([net_irq_coalesce]) GRO merges in-order TCP frames per flow into
    super-segments before the stack sees them.

    Failure handling mirrors the block pipeline: a mid-burst error
    splits the burst and resubmits the failing frame individually
    ([net.burst_split]); a completion that never arrives trips the burst
    deadline and the buffer is quarantined — unmapped but never returned
    to the pool, counted under [net.pool_leaked] — before the frame is
    reported upstack via {!Netstack.tx_error}. *)

val init : Netstack.t -> unit

val tx_packets : unit -> int
val rx_packets : unit -> int
