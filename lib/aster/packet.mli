(** Network packets: a structured header plus payload, with a binary
    encoding for links that carry raw bytes (virtio-net DMA buffers).

    The payload is a view: the bytes [payload.[off, off + len)]. A
    decoded packet's view lies inside the wire frame it was decoded
    from, which it then owns; nothing writes a view's bytes. A TCP
    segment that reads a sendfile view has no payload of its own: it
    borrows {!slices} from its connection instead. *)

type proto = Tcp | Udp

type slice =
  | Buf of bytes * int * int  (** [(b, off, n)]: queued bytes, never written *)
  | View of Page_cache.view * int * int  (** [(v, pos, n)]: a range of a sendfile view *)

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
  slices : slice list;
      (** A segment's borrowed payload, in order, whose pins its
          connection holds until the ACK; [payload] is then empty.
          Empty for a payload of its own. *)
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

val encode_into : t -> bytes -> unit
(** Write header and payload into the front of a buffer of at least
    [header_size + len] bytes, checksum word zero. A slice of a view is
    read as the device sees its frames ({!Page_cache.view_blit}). *)

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

val flat_payload : t -> bytes
(** The payload as one buffer: a flat packet's own when it is the whole
    buffer, otherwise a fresh copy. *)

val flatten : t -> t
(** The same packet with a payload of its own, copied from its slices
    (itself if it has none): what loopback delivers, since a receiver
    queues a payload by reference. *)

val ends_view : t -> bool
(** The segment carries the last byte of a view that pinned a page: it
    pays the zero-copy mapping in place of the payload copy. *)

val borrow : t -> unit
(** Lend the segment every view it reads ({!Page_cache.lend}): no pin
    of theirs drops before {!give_back}. *)

val give_back : t -> unit

val make :
  src_ip:int -> dst_ip:int -> proto:proto -> src_port:int -> dst_port:int ->
  ?flags:int -> ?seq:int -> ?ack:int -> ?win:int -> ?slices:slice list -> bytes -> t
(** The payload is the whole buffer, taken over by reference; with
    [slices], the buffer is ignored and the payload is theirs. *)

val ip_of_string : string -> int
val string_of_ip : int -> string
