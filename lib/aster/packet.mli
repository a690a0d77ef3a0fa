(** Network packets: a structured header plus payload, with a binary
    encoding for links that carry raw bytes (virtio-net DMA buffers).

    The payload is a view: the bytes [payload.[off, off + len)]. A
    decoded packet's view lies inside the wire frame it was decoded
    from, which it then owns; nothing writes a view's bytes. *)

type proto = Tcp | Udp

type t = {
  src_ip : int;
  dst_ip : int;
  proto : proto;
  src_port : int;
  dst_port : int;
  flags : int;
  seq : int;
  ack : int;
  win : int;
  payload : bytes;  (** the buffer the view lies in *)
  off : int;  (** the view's first byte in [payload] *)
  len : int;  (** the payload's length *)
  mutable span : int;
      (** kspan owner (0 = none): captured at [make], carried through
          the plug queue, burst splits and driver retries. *)
  mutable span_t0 : Sim.Time.t;  (** entry into the TX path (netstack stamp) *)
  mutable pins : Ostd.Frame.t list;
      (** Zero-copy TX: page-cache frames the payload references, dropped
          exactly once when the packet resolves (see {!release_pins}). *)
}

val syn : int
val ack_flag : int
val fin : int
val rst : int
val psh : int

val header_size : int
val mss : int
(** Maximum segment payload carried per wire frame. *)

val gso_max_size : int
(** Super-segment payload cap, bytes: the largest TCP segment the stack
    hands the NIC for TSO, the largest merge GRO builds from wire
    frames, and the loopback segment size. *)

val encode_header : t -> bytes -> unit
(** Write the [header_size]-byte header into the front of a buffer,
    checksum word zero. *)

val encode_into : t -> bytes -> unit
(** Write header and payload into the front of a buffer of at least
    [header_size + len] bytes, checksum word zero. *)

val encode : t -> bytes
(** Serialize header and payload into a fresh frame. The checksum word
    is left zero: the NIC seals each wire frame as it leaves
    ({!Machine.Pktfmt.seal}). *)

val decode : ?verify:bool -> bytes -> t option
(** [None] for truncated datagrams, unknown protocols, or a checksum
    mismatch (counted as [net.checksum_drop]) — corrupted frames are
    dropped so retransmission, not garbled data, is what the caller
    sees. The checksum is verified in place over the frame
    ({!Machine.Pktfmt.cksum_ok}). [~verify:false] skips that software
    pass: the guest driver's path, where the NIC already verified the
    frame and the driver checked its verdict.

    Nothing is copied: the packet's payload is a view of the frame
    itself, at offset [header_size], so the packet takes the frame
    over and the caller must not write it afterwards. *)

val release_pins : t -> unit
(** Drop every pinned frame exactly once (idempotent: the list empties
    on first call). Counted under [net.zc_unpin]. *)

val make :
  src_ip:int -> dst_ip:int -> proto:proto -> src_port:int -> dst_port:int ->
  ?flags:int -> ?seq:int -> ?ack:int -> ?win:int -> bytes -> t
(** The payload is the whole buffer, taken over by reference. *)

val ip_of_string : string -> int
val string_of_ip : int -> string
