(** Virtio network device model, attached to one end of a {!Wire}.

    Transmit descriptor (40 bytes):
    {v
      off 0   u32  len
      off 4   u32  status   written by the device: 0 sent, 1 dma fault / tx error
      off 8   u64  data paddr
      off 16  u64  next descriptor paddr (0 = end of chain)
      off 24  u64  completion timestamp (cycles), device-written
      off 32  u32  gso_size  virtio-net-hdr-style TSO record (0 = one frame)
    v}

    Receive descriptor (20 bytes):
    {v
      off 0   u32  capacity
      off 4   u32  used len  written by the device (0xffff until used)
      off 8   u64  data paddr
      off 16  u32  checksum verdict, device-written (1 = ok, 2 = bad)
    v}

    A TX notify names the head of a descriptor chain; the device walks
    the [next] links (bounded), pays one per-kick latency plus a smaller
    per-wire-frame latency, puts every frame on the wire, and raises ONE
    completion interrupt for the whole chain. A descriptor whose GSO
    record is non-zero is split into MSS-sized wire frames at ring time —
    the device, not the kernel, pays the per-frame work, which is the
    entire point of TSO. The device seals every frame it puts on the
    wire with its checksum, once, reading the frame straight out of DMA
    memory. Every delivered frame's checksum is verified and the verdict
    written into its RX descriptor. The driver posts receive
    buffers ahead of time; inbound packets that find no posted buffer
    are dropped and counted, like a NIC with an empty RX ring. All data
    movement goes through the {!Iommu}. One interrupt vector signals
    both TX completions and RX arrivals; with the [net_irq_coalesce]
    profile knob the line stays asserted until the driver acks it
    ([reg_irq_ack]), NAPI-style, so arrivals landing before the bottom
    half runs fold into one interrupt. *)

type t

val create :
  mmio_base:int -> dev_id:int -> vector:int -> endpoint:Wire.endpoint -> t

val reg_queue_tx : int
val reg_queue_rx : int
val reg_irq_ack : int

val desc_gso : int
(** Offset of the TX descriptor's GSO record. *)

val rx_desc_csum : int
(** Offset of the RX descriptor's checksum verdict. *)

val csum_verdict_ok : int
val csum_verdict_bad : int

val tx_count : t -> int
