let reg_queue_tx = 0x10
let reg_queue_rx = 0x18
let reg_irq_ack = 0x20

(* Bytes of one TX descriptor, including the chain link at off 16, the
   device-written completion timestamp at off 24 and the virtio-net-hdr
   style GSO record at off 32 (gso_size; 0 = send as one frame). A TX
   notify may name the head of a chain: the device walks [next] pointers
   (bounded, loop-safe) and services the whole chain with one completion
   interrupt — the per-burst doorbell/IRQ economy the batched TX
   pipeline banks on. RX descriptors are 20 bytes: the 16-byte
   capacity/used/address header, then the checksum verdict at off 16
   (1 = ok, 2 = bad), clear of the u64 data address at off 8. *)
let desc_size = 40

let desc_gso = 32

let rx_desc_size = 20

let rx_desc_csum = 16

let csum_verdict_ok = 1

let csum_verdict_bad = 2

let max_chain = 128

type t = {
  dev_id : int;
  vector : int;
  endpoint : Wire.endpoint;
  rx_ring : int Queue.t; (* posted rx descriptor paddrs *)
  backlog : bytes Queue.t; (* packets that arrived before a buffer was posted *)
  mutable sent : int;
  mutable irq_pending : bool;
  mutable irq_missed : bool;
}

let tx_count t = t.sent

(* Fault plane for a lossy/hostile link: a frame may be dropped, have a
   byte flipped (caught by the packet checksum upstack), or be
   duplicated (TCP must treat the copy as a stale segment). Hands each
   frame that travels on to [k t]: none, the frame, or the frame and
   then its copy. *)
let mangle t pkt k =
  if Sim.Fault.roll "net.drop" then Sim.Stats.incr "virtio_net.injected_drop"
  else begin
    (* The frame is ours until [k] takes it: corrupt it in place. *)
    if Bytes.length pkt > 0 && Sim.Fault.roll "net.corrupt" then begin
      Sim.Stats.incr "virtio_net.injected_corrupt";
      let i = Bytes.length pkt / 2 in
      Bytes.set pkt i (Char.chr (Char.code (Bytes.get pkt i) lxor 0x55))
    end;
    if Sim.Fault.roll "net.dup" then begin
      Sim.Stats.incr "virtio_net.injected_dup";
      let copy = Bytes.copy pkt in
      k t pkt;
      k t copy
    end
    else k t pkt
  end

(* A frame on the wire is the peer's: nothing here writes it again. *)
let send_frame t f = Wire.send t.endpoint f

(* With [net_irq_coalesce] the line is NAPI-style: it stays asserted
   until the driver acks it (reg_irq_ack), so everything completing
   before the bottom half re-enables interrupts folds into one
   interrupt, and a missed-work flag re-raises after the ack so no
   completion is ever silently lost.

   Without the knob the device is the naive NIC: every completion
   event is delivered as its own interrupt — the per-packet interrupt
   tax the coalescing ablation measures. *)
let raise_irq t =
  if (Sim.Profile.get ()).Sim.Profile.net_irq_coalesce then begin
    if t.irq_pending then t.irq_missed <- true
    else begin
      t.irq_pending <- true;
      Irq_chip.raise_irq (Irq_chip.Device t.dev_id) ~vector:t.vector
    end
  end
  else Irq_chip.raise_irq (Irq_chip.Device t.dev_id) ~vector:t.vector

(* RX arrivals folding into an already-asserted line are the NAPI win;
   count them so /proc/kstat shows the moderation working. *)
let raise_rx_irq t =
  if t.irq_pending then Sim.Stats.incr "net.coalesced_rx";
  raise_irq t

let irq_ack t =
  if t.irq_pending then begin
    t.irq_pending <- false;
    if t.irq_missed then begin
      t.irq_missed <- false;
      raise_irq t
    end
  end

(* Service one TX descriptor: DMA the descriptor, cut the frame into
   sealed wire frames read straight out of DMA memory (split only if
   the GSO record asks for segmentation), put them on the wire, write
   status. Runs as a device event, not kernel code.
   Returns [(completed, wire_frames)]: [completed] when the status word
   was written (the completion deserves an interrupt) — the caller
   raises one interrupt per chain, not per descriptor — and
   [wire_frames] is how many frames the descriptor became on the wire,
   each of which costs the device per-frame processing. *)
let execute_tx_one t desc_paddr =
  match Iommu.access ~dev:t.dev_id ~paddr:desc_paddr ~len:desc_size with
  | Error _ ->
    Sim.Stats.incr "virtio_net.dma_fault";
    (false, 1)
  | Ok () ->
    let len = Phys.read_u32 desc_paddr in
    let data_paddr = Int64.to_int (Phys.read_u64 (desc_paddr + 8)) in
    let gso = Phys.read_u32 (desc_paddr + desc_gso) in
    (* Fault plane: a hostile/flaky NIC. An injected tx_drop never writes
       the status word — the driver's burst deadline must notice and
       quarantine the buffer. An injected tx_fail completes with status 1
       mid-chain; its neighbours complete. Both act on the whole
       descriptor: a super-segment fails as a unit and the retry ladder
       resubmits every wire frame it would have produced. *)
    if Sim.Fault.roll "net.tx_drop" then begin
      Sim.Stats.incr "virtio_net.dropped_completion";
      (false, 1)
    end
    else begin
      (* Completion stamp at off 24, written unconditionally alongside
         every status write so enabling kspan changes nothing the
         device does: the driver splits service time from IRQ-delivery
         delay with it. *)
      let stamp () = Phys.write_u64 (desc_paddr + 24) (Int64.of_int (Sim.Time.now ())) in
      if Sim.Fault.roll "net.tx_fail" then begin
        Sim.Stats.incr "virtio_net.injected_tx_fail";
        stamp ();
        Phys.write_u32 (desc_paddr + 4) 1;
        (true, 1)
      end
      else begin
        match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
        | Error _ ->
          Sim.Stats.incr "virtio_net.dma_fault";
          stamp ();
          Phys.write_u32 (desc_paddr + 4) 1;
          (true, 1)
        | Ok () ->
          let nframes = Pktfmt.tso_frames ~gso_size:gso ~len in
          if nframes > 1 then Sim.Stats.add "virtio_net.tso_frames" (nframes - 1);
          (* Each wire frame is mangled independently, as it is cut: a
             noisy link corrupts MSS-sized frames, not the super-segment
             the guest handed over. The descriptor still completes with
             success: the guest cannot tell a frame lost on the wire
             from one that made it. *)
          Pktfmt.tso_split ~gso_size:gso ~len
            (fun src dst off n -> Phys.read ~paddr:(data_paddr + src) dst ~off ~len:n)
            (fun f ->
              t.sent <- t.sent + 1;
              mangle t f send_frame);
          stamp ();
          Phys.write_u32 (desc_paddr + 4) 0;
          (true, nframes)
      end
    end

(* Walk the [next] pointers from a chain head. Bounded at [max_chain]
   and tolerant of garbage pointers (a hostile kernel can link the chain
   anywhere; the walk just ends). Security-relevant accesses — the
   descriptor body and the frame data — still go through the IOMMU in
   [execute_tx_one]. *)
let chain_of head =
  let rec go acc paddr n =
    if paddr = 0 || n >= max_chain then List.rev acc
    else begin
      let next =
        if Phys.valid ~paddr ~len:desc_size then Int64.to_int (Phys.read_u64 (paddr + 16))
        else 0
      in
      go (paddr :: acc) next (n + 1)
    end
  in
  go [] head 0

(* Latency model: the first descriptor of a chain pays the per-kick
   queue-processing latency; each further *wire frame* adds only the
   smaller per-frame cost — a TSO super-segment costs the device per
   MSS frame it emits, so the offload amortises kernel work, never
   device work. Wire serialization (the per-byte part) is modelled by
   {!Wire} — batching amortises overheads, not the link. *)
let chain_latency n =
  let c = Sim.Cost.c () in
  if n <= 0 then 0
  else
    Sim.Time.of_us c.Sim.Profile.net_us_per_kick
    + ((n - 1) * Sim.Time.of_us c.Sim.Profile.net_us_per_desc)

(* A notify consumes the whole chain synchronously: frames enter the
   wire at ring-update time, so serialization (modelled by {!Wire})
   overlaps guest CPU instead of queueing behind it. What the chain
   latency buys is the *completion* side: one interrupt for the whole
   chain, delivered after the per-kick cost plus the (much smaller)
   per-wire-frame increments. *)
let notify_tx t desc_paddr =
  let descs = chain_of desc_paddr in
  let any, total_frames =
    List.fold_left
      (fun (any, total) d ->
        let completed, frames = execute_tx_one t d in
        ((if completed then true else any), total + frames))
      (false, 0) descs
  in
  if any then
    ignore (Sim.Events.schedule_after (chain_latency total_frames) (fun () -> raise_irq t))

(* Returns [true] when the used length was written (the arrival deserves
   an interrupt). *)
let deliver_into t desc_paddr pkt =
  match Iommu.access ~dev:t.dev_id ~paddr:desc_paddr ~len:rx_desc_size with
  | Error _ ->
    Sim.Stats.incr "virtio_net.dma_fault";
    false
  | Ok () ->
    let cap = Phys.read_u32 desc_paddr in
    let data_paddr = Int64.to_int (Phys.read_u64 (desc_paddr + 8)) in
    let len = min cap (Bytes.length pkt) in
    (match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
    | Error _ ->
      Sim.Stats.incr "virtio_net.dma_fault";
      Phys.write_u32 (desc_paddr + 4) 0
    | Ok () ->
      Phys.write ~paddr:data_paddr pkt ~off:0 ~len;
      (* Checksum offload: the device verifies every delivered frame in
         place and writes its verdict before the status word, so the
         driver trusts the mark and never pays the software pass. *)
      Phys.write_u32 (desc_paddr + rx_desc_csum)
        (if Pktfmt.cksum_ok pkt then csum_verdict_ok else csum_verdict_bad);
      Phys.write_u32 (desc_paddr + 4) len);
    true

let pump_rx t =
  while (not (Queue.is_empty t.backlog)) && not (Queue.is_empty t.rx_ring) do
    let pkt = Queue.pop t.backlog in
    let desc = Queue.pop t.rx_ring in
    if deliver_into t desc pkt then raise_rx_irq t
  done

let take_rx t pkt =
  if Queue.length t.backlog >= 1024 then Sim.Stats.incr "virtio_net.rx_dropped"
  else begin
    Queue.push pkt t.backlog;
    pump_rx t
  end

let on_wire_packet t pkt = mangle t pkt take_rx

let create ~mmio_base ~dev_id ~vector ~endpoint =
  let t =
    {
      dev_id;
      vector;
      endpoint;
      rx_ring = Queue.create ();
      backlog = Queue.create ();
      sent = 0;
      irq_pending = false;
      irq_missed = false;
    }
  in
  Wire.on_receive endpoint (on_wire_packet t);
  let read ~off ~len:_ =
    if off = 0x00 then 0x74726976L else if off = 0x04 then 1L else 0L
  in
  let write ~off ~len:_ v =
    if off = reg_queue_tx then notify_tx t (Int64.to_int v)
    else if off = reg_queue_rx then begin
      Queue.push (Int64.to_int v) t.rx_ring;
      pump_rx t
    end
    else if off = reg_irq_ack then irq_ack t
  in
  Mmio.register
    { base = mmio_base; size = 0x100; name = "virtio-net"; sensitive = false; read; write };
  Bus.register { Bus.dev_id; kind = Bus.Net; mmio_base; mmio_size = 0x100; vector };
  t
