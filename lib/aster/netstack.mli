(** An instantiable network stack core: routing, loopback, protocol
    dispatch, and the TX plug/flush burst collector.

    The guest kernel owns one instance (loopback + the virtio-net route);
    host-side benchmark clients own another bound directly to the wire.
    Host instances charge no guest CPU cycles — the paper's clients run
    outside the VM.

    With the [net_tx_batching] profile knob, outgoing segments for the
    external interface are plugged into a per-stack burst instead of
    being handed to the driver one by one. The burst flushes through the
    driver's scatter-gather path (one descriptor chain, one doorbell)
    when it reaches {!burst_limit} segments, at the syscall boundary
    ({!flush_all}), or via a scheduled fallback that covers segments
    emitted from event context (retransmit timers, delayed ACKs) and
    tasks that block mid-syscall. *)

type t

val create : ip:int -> host:bool -> t

val ip : t -> int
val is_host : t -> bool

val loopback_ip : int

val set_ext_tx : t -> (Packet.t -> unit) -> unit
(** Transmit function for non-loopback destinations (the NIC driver or
    the host's wire endpoint). *)

val set_ext_tx_many : t -> (Packet.t list -> unit) -> unit
(** Scatter-gather transmit for a whole burst. Without it (or with
    [net_tx_batching] off) segments go out one by one via [ext_tx]. *)

val set_tcp_rx : t -> (Packet.t -> unit) -> unit
val set_udp_rx : t -> (Packet.t -> unit) -> unit

val set_tx_err : t -> (Packet.t -> unit) -> unit
(** Asynchronous transmit failure (driver gave up on a frame after
    retries, or quarantined its buffer past the burst deadline). The
    protocol layer records it against the owning connection; the data
    itself is repaired by normal retransmission. *)

val tx_error : t -> Packet.t -> unit

val send : t -> Packet.t -> unit
(** Route: destinations equal to [loopback_ip] or the stack's own address
    go through the loopback (softirq hand-off cost, asynchronous
    delivery); everything else is plugged into the TX burst or goes out
    the external interface directly. *)

val flush : t -> unit
(** Flush this stack's pending TX burst, if any. *)

val flush_all : unit -> unit
(** Flush every live stack's pending burst — called at the syscall
    boundary so a burst never outlives the syscall that filled it. *)

val reset_registry : unit -> unit
(** Forget all stacks (machine reboot): stale stacks must not flush
    into recycled device state. *)

val rx : t -> Packet.t -> unit
(** Entry point for inbound packets from the external interface. *)

val rx_many : t -> Packet.t array -> int -> unit
(** [rx_many t ps n]: coalesced entry point for a reaped RX batch, the
    packets [ps.(0 .. n - 1)]: one tracepoint for the batch, then
    per-packet protocol dispatch in array order. *)

val charge : t -> int -> unit
(** Charge cycles only when this is the guest stack. *)
