(** A point-to-point network link (the tap device between the VM's
    virtio-net and the host).

    Each endpoint owns a receive callback; [send] delivers the packet to
    the peer after the wire latency plus a serialisation delay derived
    from the link bandwidth. Deliveries preserve order. *)

type endpoint

val create_pair : latency_us:float -> bytes_per_cycle:float -> endpoint * endpoint

val on_receive : endpoint -> (bytes -> unit) -> unit

val send : endpoint -> bytes -> unit
(** Takes ownership of the frame: the peer receives this very buffer,
    not a copy, so the sender must not touch it afterwards. *)

val packets_sent : endpoint -> int
