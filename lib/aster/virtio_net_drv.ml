(* Buffer layout: descriptor (40 bytes, incl. the chain link at off 16
   and the TSO record at off 32) at offset 0, packet data at 64. Buffers
   come in two sizes: 5-page buffers carry MTU-scale frames (all RX
   postings — the device splits super-segments before the wire, so
   received frames never exceed one MSS — and small TX), and a large
   geometry carries super-segment TX descriptors of up to
   [Packet.gso_max_size]. Sizing to the frame matters on a 64 MiB
   machine: 17-page buffers for every ACK and RX slot would exhaust
   physical memory on long runs. *)
let data_off = 64

let base_buf_pages = 5

let tso_buf_pages = 17 (* 17 * 4096 - 64 = 69568 >= 64 KiB + header *)

let base_cap = (base_buf_pages * Machine.Phys.page_size) - data_off

let tso_cap = (tso_buf_pages * Machine.Phys.page_size) - data_off

let unused_marker = 0xFFFF

let desc_len = 0
let desc_status = 4
let desc_data = 8
let desc_next = 16
let desc_done_ts = 24 (* device-written completion timestamp (cycles) *)

(* One individual resubmission after a mid-burst failure; then give up
   and report the frame to the stack (TCP repairs by retransmission). *)
let tx_max_tries = 2

(* One submission's completion deadline, shared by the buffers of its
   chain: [left] of them are not yet reaped. *)
type deadline = { mutable left : int; mutable ev : Sim.Events.handle option }

type buf = {
  stream : Ostd.Dma.Stream.t;
  home : Ostd.Dma.Pool.t option; (* pool to return to; [None] = fresh map *)
  pkt : Packet.t option; (* TX only: for error reporting upstack *)
  mutable tries : int;
  mutable deadline : deadline; (* the latest submission's; older ones skip *)
  mutable issued : Sim.Time.t; (* first doorbell for this frame; 0 = never *)
}

let unsubmitted = { left = 0; ev = None }

(* A growable array whose live items, oldest first, are
   [items.(0 .. n - 1)]; every other slot holds [vacant], so it keeps
   nothing alive once it has handed it on. The rings hold the buffers
   handed to the device ([None] vacant), the batches received packets
   on their way up. *)
type 'a slots = { mutable items : 'a array; mutable n : int; vacant : 'a }

let slots vacant = { items = Array.make 32 vacant; n = 0; vacant }

let push q x =
  if q.n = Array.length q.items then begin
    let grown = Array.make (2 * q.n) q.vacant in
    Array.blit q.items 0 grown 0 q.n;
    q.items <- grown
  end;
  q.items.(q.n) <- x;
  q.n <- q.n + 1

(* Remove [items.(i)], keeping the order of the rest. *)
let remove q i =
  Array.blit q.items (i + 1) q.items i (q.n - i - 1);
  q.n <- q.n - 1;
  q.items.(q.n) <- q.vacant

let clear q =
  Array.fill q.items 0 q.n q.vacant;
  q.n <- 0

let get r i =
  match r.items.(i) with Some b -> b | None -> Ostd.Panic.panic "virtio-net: empty ring slot"

let no_packet =
  Packet.make ~src_ip:0 ~dst_ip:0 ~proto:Packet.Udp ~src_port:0 ~dst_port:0 Bytes.empty

(* GRO: an in-progress per-flow merge of in-order TCP data frames,
   held across NAPI polls and flushed as one super-segment. *)
type gro_pending = {
  g_first : Packet.t; (* carries seq, ports, span ownership *)
  mutable g_parts : Packet.t list; (* the merged frames, newest first *)
  mutable g_nparts : int;
  mutable g_next_seq : int;
  mutable g_total : int;
  mutable g_last : Packet.t; (* freshest ack / window / PSH *)
}

type state = {
  stack : Netstack.t;
  window : Ostd.Io_mem.t;
  dev_id : int;
  pool : Ostd.Dma.Pool.t; (* 5-page buffers: RX ring + MTU-scale TX *)
  big_pool : Ostd.Dma.Pool.t option; (* 17-page super-segment TX; pooled profiles only *)
  gro : (int * int * int, gro_pending) Hashtbl.t; (* (src ip, sport, dport) *)
  tx_pending : buf option slots;
  rx_posted : buf option slots;
  answered : buf option slots; (* a reap's completed buffers, in ring order *)
  rx_in : Packet.t slots; (* a reap's decoded frames *)
  rx_out : Packet.t slots; (* what GRO hands the stack *)
  mutable ntx : int;
  mutable nrx : int;
  mutable polling : bool; (* NAPI: a poll chain is active, interrupts masked *)
}

let state : state option ref = ref None

let st () =
  match !state with
  | Some s -> s
  | None -> Ostd.Panic.panic "virtio-net driver not initialised"

let tx_packets () = match !state with Some s -> s.ntx | None -> 0

let rx_packets () = match !state with Some s -> s.nrx | None -> 0

(* [len] is the encoded frame length the buffer must hold (0 for RX
   postings — wire frames are MTU-scale by construction). Only frames
   that overflow the base geometry draw the large buffers. *)
let take_buf s ~pkt ~len =
  let big = len > base_cap in
  let pages = if big then tso_buf_pages else base_buf_pages in
  let fresh () =
    { stream = Ostd.Dma.Stream.map (Ostd.Frame.alloc ~pages ()) ~dev:s.dev_id;
      home = None; pkt; tries = 0; deadline = unsubmitted; issued = 0 }
  in
  let from_pool p =
    match Ostd.Dma.Pool.alloc p with
    | Some stream -> { stream; home = Some p; pkt; tries = 0; deadline = unsubmitted; issued = 0 }
    | None ->
      Sim.Stats.incr "virtio_net.pool_exhausted";
      fresh ()
  in
  if (Sim.Profile.get ()).Sim.Profile.dma_pooling then
    match (big, s.big_pool) with
    | false, _ -> from_pool s.pool
    | true, Some p -> from_pool p
    | true, None -> fresh ()
  else fresh ()

let release_buf _s b =
  match b.home with
  | Some p -> Ostd.Dma.Pool.release p b.stream
  | None -> Ostd.Dma.Stream.unmap b.stream

let frame_of b = Ostd.Dma.Stream.frame b.stream

let post_rx s =
  let b = take_buf s ~pkt:None ~len:0 in
  let f = frame_of b in
  Ostd.Untyped.write_u32 f ~off:desc_len base_cap;
  Ostd.Untyped.write_u32 f ~off:desc_status unused_marker;
  Ostd.Untyped.write_u64 f ~off:desc_data (Int64.of_int (Ostd.Dma.Stream.paddr b.stream + data_off));
  let ring_was_empty = s.rx_posted.n = 0 in
  push s.rx_posted (Some b);
  (* Reposting into a non-empty RX ring is a ring update, not a kick. *)
  if ring_was_empty then
    Ostd.Io_mem.doorbell s.window ~off:Machine.Virtio_net.reg_queue_rx
      (Int64.of_int (Ostd.Dma.Stream.paddr b.stream))
  else begin
    Sim.Cost.charge_ring_update ();
    Machine.Mmio.write
      ~addr:(Ostd.Io_mem.base s.window + Machine.Virtio_net.reg_queue_rx)
      ~len:8
      (Int64.of_int (Ostd.Dma.Stream.paddr b.stream))
  end

(* Every TX frame is encoded here, header and payload, then placed in
   its DMA buffer in one call. *)
let stage = Bytes.create tso_cap

(* Build the DMA descriptor for one outgoing frame, data copied in,
   chain link zeroed; [link] stitches chains afterwards. Does not ring
   the doorbell. *)
let prepare_tx s pkt =
  let plen = pkt.Packet.len in
  let len = Packet.header_size + plen in
  if len > tso_cap then Ostd.Panic.panic "virtio-net: packet exceeds buffer";
  Netstack.charge s.stack 500;
  let b = take_buf s ~pkt:(Some pkt) ~len in
  let f = frame_of b in
  Packet.encode_into pkt stage;
  (if Packet.ends_view pkt then begin
     (* Zero-copy sendfile: the payload lives in pinned page-cache
        frames, which the device reads behind the header the CPU
        writes. [Dma.Stream.fill] places the frame without a copy
        charge, and the mapping cost is the per-packet zc map. *)
     Sim.Cost.charge_memcpy Packet.header_size;
     Ostd.Dma.charge_zc_map ();
     Sim.Stats.add "net.bytes_copied" Packet.header_size;
     Ostd.Dma.Stream.fill b.stream ~off:data_off ~buf:stage ~pos:0 ~len
   end
   else begin
     (* Copy into the DMA buffer: a real data movement, one write of the
        whole frame from the staging buffer. *)
     Sim.Cost.charge_memcpy len;
     Sim.Stats.add "net.bytes_copied" len;
     Ostd.Untyped.write_bytes f ~off:data_off ~buf:stage ~pos:0 ~len
   end);
  Ostd.Untyped.write_u32 f ~off:desc_len len;
  Ostd.Untyped.write_u32 f ~off:desc_status unused_marker;
  Ostd.Untyped.write_u64 f ~off:desc_data (Int64.of_int (Ostd.Dma.Stream.paddr b.stream + data_off));
  Ostd.Untyped.write_u64 f ~off:desc_next 0L;
  Ostd.Untyped.write_u64 f ~off:desc_done_ts 0L;
  (* TSO record: a super-segment asks the device to split at the wire
     MSS; anything within one MSS goes out as is. *)
  Ostd.Untyped.write_u32 f ~off:Machine.Virtio_net.desc_gso
    (if len - Packet.header_size > Packet.mss then Packet.mss else 0);
  s.ntx <- s.ntx + 1;
  (* Span-ownership conservation: one creation count per span-owned
     frame. Retries reuse this buffer via [submit_one] without a second
     prepare, so the count stays exactly-once; every frame must
     eventually count span.tx_done (reap success, give-up, or
     quarantine). *)
  (match pkt.Packet.span with 0 -> () | _ -> Sim.Stats.incr "span.tx_created");
  b

let link prev next =
  Ostd.Untyped.write_u64 (frame_of prev) ~off:desc_next
    (Int64.of_int (Ostd.Dma.Stream.paddr next.stream))

(* Ring the TX doorbell for a chain head. With the batched pipeline the
   driver uses virtio event suppression: kick only an idle device (full
   VM-exit cost); while it is busy, adding descriptors is a cheap ring
   update and the device keeps consuming. The unbatched baseline is the
   naive driver: every frame pays the full kick — exactly the per-packet
   doorbell economy the TX plug exists to amortise. [device_idle] must
   be sampled before the buffers are added to [s.tx_pending]. *)
let ring s ~device_idle head =
  let head_paddr = Int64.of_int (Ostd.Dma.Stream.paddr head.stream) in
  if device_idle || not (Sim.Profile.get ()).Sim.Profile.net_tx_batching then begin
    Sim.Stats.incr "net.doorbell";
    Ostd.Io_mem.doorbell s.window ~off:Machine.Virtio_net.reg_queue_tx head_paddr
  end
  else begin
    Sim.Stats.incr "net.notify_suppressed";
    Sim.Cost.charge_ring_update ();
    Machine.Mmio.write
      ~addr:(Ostd.Io_mem.base s.window + Machine.Virtio_net.reg_queue_tx)
      ~len:8 head_paddr
  end

(* Timeout path: the device never wrote a status word for these buffers
   (a stuck or hostile NIC). Quarantine them — unmap the stream without
   ever returning it to the pool, so a late DMA faults at the IOMMU
   instead of landing in reused memory. The leaked pool slots are the
   price of that safety, counted under [net.pool_leaked] so /proc/kstat
   makes the shrinkage observable. The frames themselves are reported
   upstack and repaired by retransmission. The deadline lives only as
   long as its chain: reaping the chain's last buffer cancels it. *)
let tx_deadline_cycles n = Sim.Time.of_us (500. +. (20. *. float_of_int n))

let quarantine s i =
  let b = get s.tx_pending i in
  remove s.tx_pending i;
  Sim.Stats.incr "virtio_net.quarantined";
  if b.home <> None then Sim.Stats.incr "net.pool_leaked";
  Ostd.Dma.Stream.unmap b.stream;
  match b.pkt with
  | Some p ->
    if p.Packet.span > 0 then Sim.Stats.incr "span.tx_done";
    if Packet.ends_view p then Ostd.Dma.charge_zc_unmap ();
    Netstack.tx_error s.stack p
  | None -> ()

(* The submission's buffers are [tx_pending.(first .. first + n - 1)].
   When the deadline fires, those still pending under it are found in
   ring order, which is their submission order. *)
let arm_tx_deadline s ~first n =
  let d = { left = n; ev = None } in
  for i = first to first + n - 1 do
    (get s.tx_pending i).deadline <- d
  done;
  d.ev <-
    Some
      (Sim.Events.schedule_after (tx_deadline_cycles n) (fun () ->
           let i = ref 0 in
           while !i < s.tx_pending.n do
             let b = get s.tx_pending !i in
             if
               b.deadline == d
               && Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status = unused_marker
             then quarantine s !i
             else incr i
           done))

(* A reaped buffer, completed or failed, no longer needs its
   submission's deadline; the chain's last one cancels it. *)
let disarm b =
  let d = b.deadline in
  d.left <- d.left - 1;
  if d.left = 0 then Option.iter Sim.Events.cancel d.ev

let submit_one s b =
  if b.issued = 0 then b.issued <- Sim.Time.now ();
  let device_idle = s.tx_pending.n = 0 in
  push s.tx_pending (Some b);
  ring s ~device_idle b;
  arm_tx_deadline s ~first:(s.tx_pending.n - 1) 1

let transmit s pkt = submit_one s (prepare_tx s pkt)

(* Scatter-gather submission: one descriptor chain, one doorbell, and —
   on the device side — one completion interrupt for the whole burst.
   The chain is prepared into [tx_pending] directly and linked there. *)
let submit_many s pkts =
  let r = s.tx_pending in
  let device_idle = r.n = 0 and first = r.n in
  List.iter (fun p -> push r (Some (prepare_tx s p))) pkts;
  let n = r.n - first in
  if n > 0 then begin
    for i = first to first + n - 2 do
      link (get r i) (get r (i + 1))
    done;
    let now = Sim.Time.now () in
    for i = first to first + n - 1 do
      let b = get r i in
      if b.issued = 0 then b.issued <- now
    done;
    ring s ~device_idle (get r first);
    arm_tx_deadline s ~first n
  end

(* A mid-burst transmit error splits the burst: the failing frame is
   resubmitted individually (its own descriptor, its own doorbell
   economy); its neighbours' completions are untouched. After
   [tx_max_tries] the driver gives up and reports the frame upstack. *)
let retry_or_give_up s b =
  if b.tries < tx_max_tries then begin
    b.tries <- b.tries + 1;
    Sim.Stats.incr "net.burst_split";
    Sim.Stats.incr "degrade.retried.net_tx";
    let f = frame_of b in
    Ostd.Untyped.write_u32 f ~off:desc_status unused_marker;
    Ostd.Untyped.write_u64 f ~off:desc_next 0L;
    submit_one s b
  end
  else begin
    Sim.Stats.incr "degrade.gave_up.net_tx";
    (match b.pkt with
    | Some p ->
      if p.Packet.span > 0 then Sim.Stats.incr "span.tx_done";
      if Packet.ends_view p then Ostd.Dma.charge_zc_unmap ();
      Netstack.tx_error s.stack p
    | None -> ());
    release_buf s b
  end

(* --- GRO: receive-side coalescing --------------------------------- *)

(* GRO rides the NAPI machinery: merges are held across polls and the
   idle poll is the backstop flush, so it runs whenever
   [net_irq_coalesce] does. *)

let gro_key (p : Packet.t) = (p.Packet.src_ip, p.Packet.src_port, p.Packet.dst_port)

(* In-order TCP data with no connection-state flags is mergeable; SYN /
   FIN / RST and pure ACKs punch through (flushing the flow first so
   per-flow ordering is preserved — a FIN overtaking buffered data would
   wake the receiver into a premature EOF). *)
let gro_mergeable (p : Packet.t) =
  p.Packet.proto = Packet.Tcp
  && p.Packet.len > 0
  && p.Packet.flags land (Packet.syn lor Packet.fin lor Packet.rst) = 0

(* Materialise a pending merge as one super-segment: first part's seq
   and span ownership, last part's ack / window / PSH, payloads
   concatenated — the one copy a received payload takes on its way to
   the socket. A single-part merge hands back the original packet, its
   payload still a view of its frame. *)
let gro_materialise g =
  if g.g_nparts = 1 then g.g_first
  else begin
    Sim.Stats.add "net.gro_merged" (g.g_nparts - 1);
    let merged = Bytes.create g.g_total in
    let rec fill stop = function
      | [] -> ()
      | (p : Packet.t) :: older ->
        let at = stop - p.Packet.len in
        Bytes.blit p.Packet.payload p.Packet.off merged at p.Packet.len;
        fill at older
    in
    fill g.g_total g.g_parts;
    {
      g.g_first with
      Packet.payload = merged;
      off = 0;
      len = g.g_total;
      flags = Packet.ack_flag lor (g.g_last.Packet.flags land Packet.psh);
      ack = g.g_last.Packet.ack;
      win = g.g_last.Packet.win;
    }
  end

let gro_flush_flow s key =
  match Hashtbl.find_opt s.gro key with
  | None -> ()
  | Some g ->
    Hashtbl.remove s.gro key;
    push s.rx_out (gro_materialise g)

(* Every held merge, materialised in the table's fold order and handed
   on in the reverse of it. *)
let gro_flush_all s =
  List.iter (push s.rx_out) (Hashtbl.fold (fun _ g acc -> gro_materialise g :: acc) s.gro []);
  Hashtbl.reset s.gro

(* Feed one reaped wire frame through the merge engine, adding to
   [rx_out] whatever must be delivered to the stack right now (possibly
   nothing: the frame joined a pending merge). Flushes on PSH, on
   reaching [Packet.gso_max_size], and on any discontinuity in seq or
   flags. *)
let gro_rx s (p : Packet.t) =
  if not (gro_mergeable p) then begin
    gro_flush_flow s (gro_key p);
    push s.rx_out p
  end
  else begin
    let key = gro_key p in
    let len = p.Packet.len in
    let cap = Packet.gso_max_size in
    let fits g = p.Packet.seq = g.g_next_seq && g.g_total + len <= cap in
    match Hashtbl.find_opt s.gro key with
    | Some g when fits g ->
      g.g_parts <- p :: g.g_parts;
      g.g_nparts <- g.g_nparts + 1;
      g.g_next_seq <- g.g_next_seq + len;
      g.g_total <- g.g_total + len;
      g.g_last <- p;
      if p.Packet.flags land Packet.psh <> 0 || g.g_total >= cap then gro_flush_flow s key
    | prior ->
      (match prior with Some _ -> gro_flush_flow s key | None -> ());
      if p.Packet.flags land Packet.psh <> 0 then push s.rx_out p
      else
        Hashtbl.replace s.gro key
          {
            g_first = p;
            g_parts = [ p ];
            g_nparts = 1;
            g_next_seq = p.Packet.seq + len;
            g_total = len;
            g_last = p;
          }
  end

let tp_drop_hw =
  Sim.Trace.point Sim.Trace.Net "drop" [| "len" |] (fun f ->
      Printf.sprintf "reason=checksum-hw len=%d" f.a)

let reap_tx s b =
  disarm b;
  if Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status = 0 then begin
    (* The completion stamp is read unconditionally: the checked
       accessor charges its boundary check whether or not anyone is
       tracing, so span-on and span-off runs stay byte-identical. *)
    let ts = Int64.to_int (Ostd.Untyped.read_u64 (frame_of b) ~off:desc_done_ts) in
    (* Span waterfall for the owning request: device service
       (doorbell → the device's completion stamp) and IRQ-delivery
       delay (stamp → this reap). One tx_done count per span-owned
       frame balances prepare_tx's tx_created. *)
    (match b.pkt with
    | Some p when p.Packet.span > 0 ->
      let now = Sim.Time.now () in
      let t0 = if b.issued > 0 then b.issued else p.Packet.span_t0 in
      if t0 > 0 then begin
        let s_end = if ts > 0 then ts else now in
        Sim.Span.add_to p.Packet.span "net.service" t0 s_end;
        if ts > 0 then Sim.Span.add_to p.Packet.span "net.irq" ts now
      end;
      Sim.Stats.incr "span.tx_done"
    | Some _ | None -> ());
    (* TX complete: the device is done with the view's pages, so their
       mapping goes; the pins stay with the connection until the ACK. *)
    (match b.pkt with
    | Some p when Packet.ends_view p -> Ostd.Dma.charge_zc_unmap ()
    | Some _ | None -> ());
    release_buf s b
  end
  else retry_or_give_up s b

(* One received frame: copied out of its DMA buffer into a fresh frame
   that the decoded packet then owns, its payload a view of it. The
   buffer is reposted before the frame is looked at. *)
let reap_rx s b =
  let used = Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status in
  (* Checksum offload: the device verified the frame and wrote a
     verdict, so the stack skips its software pass. *)
  let verdict = Ostd.Untyped.read_u32 (frame_of b) ~off:Machine.Virtio_net.rx_desc_csum in
  let data = Bytes.create used in
  Sim.Cost.charge_memcpy used;
  Ostd.Untyped.read_bytes (frame_of b) ~off:data_off ~buf:data ~pos:0 ~len:used;
  s.nrx <- s.nrx + 1;
  release_buf s b;
  post_rx s;
  if verdict <> Machine.Virtio_net.csum_verdict_ok then begin
    (* Same drop-and-retransmit semantics as the software checksum
       pass: the verification just happened in the NIC. *)
    Sim.Stats.incr "net.checksum_drop";
    Sim.Trace.emit1 tp_drop_hw used
  end
  else
    match Packet.decode ~verify:false data with
    | Some pkt -> push s.rx_in pkt
    | None -> Sim.Stats.incr "virtio_net.bad_packet"

(* Reap one ring: every buffer the device has answered (one status
   read each, in ring order) leaves [r] before the first is handed to
   [f], in that order; the rest close up, so whatever [f] queues (a
   retry, a repost) lands behind them. Returns how many were answered. *)
let reap_ring s r f =
  let out = s.answered and kept = ref 0 in
  for i = 0 to r.n - 1 do
    let slot = r.items.(i) in
    if Ostd.Untyped.read_u32 (frame_of (get r i)) ~off:desc_status <> unused_marker then
      push out slot
    else begin
      r.items.(!kept) <- slot;
      incr kept
    end
  done;
  Array.fill r.items !kept (r.n - !kept) None;
  r.n <- !kept;
  let n = out.n in
  for i = 0 to n - 1 do
    let b = get out i in
    out.items.(i) <- None;
    f s b
  done;
  out.n <- 0;
  n

(* Hand what GRO released to the stack as one batch. *)
let deliver s =
  Netstack.rx_many s.stack s.rx_out.items s.rx_out.n;
  clear s.rx_out

(* One bottom-half pass: reap TX completions, then RX arrivals, and
   deliver the frames received. Returns how many descriptors it
   serviced so the NAPI loop can decide whether to keep polling. *)
let reap_once s =
  let ntx = reap_ring s s.tx_pending reap_tx in
  let nrx = reap_ring s s.rx_posted reap_rx in
  let rx_in = s.rx_in in
  if (Sim.Profile.get ()).Sim.Profile.net_irq_coalesce then begin
    for i = 0 to rx_in.n - 1 do
      gro_rx s rx_in.items.(i)
    done;
    clear rx_in;
    deliver s
  end
  else begin
    for i = 0 to rx_in.n - 1 do
      Netstack.rx s.stack rx_in.items.(i)
    done;
    clear rx_in
  end;
  ntx + nrx

(* NAPI poll cadence while completions keep arriving. *)
let napi_poll_us = 3.0

(* NAPI proper: the interrupt line stays asserted (masked, from the
   CPU's point of view) for as long as each poll pass finds work; only
   an *empty* pass re-enables interrupts by acking the device. A bulk
   transfer is then serviced by one interrupt plus a chain of timer
   polls, and everything arriving meanwhile folds into the asserted
   line (counted as net.coalesced_rx by the device). *)
let rec napi_poll s =
  if reap_once s > 0 then begin
    Sim.Stats.incr "net.napi_poll";
    ignore (Sim.Events.schedule_after (Sim.Time.of_us napi_poll_us) (fun () -> napi_poll s))
  end
  else begin
    (* Idle poll: the backstop GRO flush. Nothing more is arriving, so
       any held merges deliver now, before interrupts re-enable. *)
    gro_flush_all s;
    deliver s;
    s.polling <- false;
    Sim.Cost.charge_ring_update ();
    Machine.Mmio.write
      ~addr:(Ostd.Io_mem.base s.window + Machine.Virtio_net.reg_irq_ack)
      ~len:4 1L
  end

(* Top of the bottom half. Coalesced mode enters the NAPI loop (at most
   one active per device); the unbatched baseline services exactly the
   one interrupt — per-completion interrupts, no ack protocol (the
   device auto-clears its line). *)
let reap () =
  let s = st () in
  if (Sim.Profile.get ()).Sim.Profile.net_irq_coalesce then begin
    if not s.polling then begin
      s.polling <- true;
      napi_poll s
    end
  end
  else ignore (reap_once s)

let rx_ring_depth = 16

let init stack =
  match Ostd.Bus_probe.find `Net with
  | None -> Ostd.Panic.panic "virtio-net: no device on the bus"
  | Some dev ->
    let window =
      match
        Ostd.Io_mem.acquire ~base:dev.Ostd.Bus_probe.mmio_base ~size:dev.Ostd.Bus_probe.mmio_size
      with
      | Ok w -> w
      | Error e -> Ostd.Panic.panic e
    in
    (* The base pool holds 256 5-page buffers. Super-segment TX draws
       on a second, smaller pool, which exists only when pooling is
       modelled at all: in-flight super-segments are bounded by the
       congestion window, not by packet count, so a few dozen slots
       suffice and the large buffers never dominate physical memory. *)
    let s =
      {
        stack;
        window;
        dev_id = dev.Ostd.Bus_probe.dev_id;
        pool =
          Ostd.Dma.Pool.create ~dev:dev.Ostd.Bus_probe.dev_id ~buf_pages:base_buf_pages
            ~count:256;
        big_pool =
          (if (Sim.Profile.get ()).Sim.Profile.dma_pooling then
             Some
               (Ostd.Dma.Pool.create ~dev:dev.Ostd.Bus_probe.dev_id ~buf_pages:tso_buf_pages
                  ~count:64)
           else None);
        gro = Hashtbl.create 8;
        tx_pending = slots None;
        rx_posted = slots None;
        answered = slots None;
        rx_in = slots no_packet;
        rx_out = slots no_packet;
        ntx = 0;
        nrx = 0;
        polling = false;
      }
    in
    state := Some s;
    let line = Ostd.Irq.claim ~vector:dev.Ostd.Bus_probe.vector ~name:"virtio-net" () in
    Ostd.Irq.set_handler line (fun () ->
        Sim.Stats.incr "net.irq";
        Softirq.raise_softirq reap);
    Ostd.Irq.bind_device line ~dev:s.dev_id;
    for _ = 1 to rx_ring_depth do
      post_rx s
    done;
    Netstack.set_ext_tx stack (transmit s);
    Netstack.set_ext_tx_many stack (submit_many s)
