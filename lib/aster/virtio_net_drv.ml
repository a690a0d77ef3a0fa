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

(* GRO: an in-progress per-flow merge of in-order TCP data frames,
   held across NAPI polls and flushed as one super-segment. *)
type gro_pending = {
  g_first : Packet.t; (* carries seq, ports, span ownership *)
  mutable g_parts : Bytes.t list; (* payload chunks, reversed *)
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
  mutable tx_pending : buf list;
  mutable rx_posted : buf list;
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

let tx_in_flight () = match !state with Some s -> List.length s.tx_pending | None -> 0

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
  let ring_was_empty = s.rx_posted = [] in
  s.rx_posted <- s.rx_posted @ [ b ];
  (* Reposting into a non-empty RX ring is a ring update, not a kick. *)
  if ring_was_empty then
    Ostd.Io_mem.doorbell s.window ~off:Machine.Virtio_net.reg_queue_rx
      (Int64.of_int (Ostd.Dma.Stream.paddr b.stream))
  else begin
    if not (Netstack.is_host s.stack) then Sim.Cost.charge_ring_update ();
    Machine.Mmio.write
      ~addr:(Ostd.Io_mem.base s.window + Machine.Virtio_net.reg_queue_rx)
      ~len:8
      (Int64.of_int (Ostd.Dma.Stream.paddr b.stream))
  end

(* Zero-copy frames stage their header here on the way into the DMA
   buffer. *)
let zc_header = Bytes.create Packet.header_size

(* Build the DMA descriptor for one outgoing frame, data copied in,
   chain link zeroed; [link] stitches chains afterwards. Does not ring
   the doorbell. *)
let prepare_tx s pkt =
  let plen = Bytes.length pkt.Packet.payload in
  let len = Packet.header_size + plen in
  if len > tso_cap then Ostd.Panic.panic "virtio-net: packet exceeds buffer";
  Netstack.charge s.stack 500;
  let b = take_buf s ~pkt:(Some pkt) ~len in
  let f = frame_of b in
  let guest = not (Netstack.is_host s.stack) in
  (if pkt.Packet.pins <> [] then begin
     (* Zero-copy sendfile: the payload already lives in pinned
        page-cache frames, so the CPU materialises only the 36-byte
        header. [Dma.Stream.fill] places header and payload straight in
        the DMA buffer without a copy charge, and the mapping cost is
        the per-packet zc map. *)
     if guest then begin
       Sim.Cost.charge_memcpy Packet.header_size;
       Ostd.Dma.charge_zc_map ();
       Sim.Stats.add "net.bytes_copied" Packet.header_size
     end;
     Packet.encode_header pkt zc_header;
     Ostd.Dma.Stream.fill b.stream ~off:data_off ~buf:zc_header ~pos:0 ~len:Packet.header_size;
     Ostd.Dma.Stream.fill b.stream ~off:(data_off + Packet.header_size) ~buf:pkt.Packet.payload
       ~pos:0 ~len:plen
   end
   else begin
     (* Copy into the DMA buffer: a real data movement. *)
     if guest then begin
       Sim.Cost.charge_memcpy len;
       Sim.Stats.add "net.bytes_copied" len
     end;
     Ostd.Untyped.write_bytes f ~off:data_off ~buf:(Packet.encode pkt) ~pos:0 ~len
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
    if not (Netstack.is_host s.stack) then Sim.Cost.charge_ring_update ();
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

let quarantine s b =
  s.tx_pending <- List.filter (fun x -> not (x == b)) s.tx_pending;
  Sim.Stats.incr "virtio_net.quarantined";
  if b.home <> None then Sim.Stats.incr "net.pool_leaked";
  Ostd.Dma.Stream.unmap b.stream;
  match b.pkt with
  | Some p ->
    if p.Packet.span > 0 then Sim.Stats.incr "span.tx_done";
    if p.Packet.pins <> [] then begin
      if not (Netstack.is_host s.stack) then Ostd.Dma.charge_zc_unmap ();
      Packet.release_pins p
    end;
    Netstack.tx_error s.stack p
  | None -> ()

let arm_tx_deadline s bufs =
  let n = List.length bufs in
  let d = { left = n; ev = None } in
  List.iter (fun b -> b.deadline <- d) bufs;
  d.ev <-
    Some
      (Sim.Events.schedule_after (tx_deadline_cycles n) (fun () ->
           List.iter
             (fun b ->
               if
                 b.deadline == d
                 && List.memq b s.tx_pending
                 && Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status = unused_marker
               then quarantine s b)
             bufs))

(* A reaped buffer, completed or failed, no longer needs its
   submission's deadline; the chain's last one cancels it. *)
let disarm b =
  let d = b.deadline in
  d.left <- d.left - 1;
  if d.left = 0 then Option.iter Sim.Events.cancel d.ev

let submit_one s b =
  if b.issued = 0 then b.issued <- Sim.Time.now ();
  let device_idle = s.tx_pending = [] in
  s.tx_pending <- s.tx_pending @ [ b ];
  ring s ~device_idle b;
  arm_tx_deadline s [ b ]

let transmit s pkt = submit_one s (prepare_tx s pkt)

(* Scatter-gather submission: one descriptor chain, one doorbell, and —
   on the device side — one completion interrupt for the whole burst. *)
let submit_many s pkts =
  match List.map (prepare_tx s) pkts with
  | [] -> ()
  | head :: _ as bufs ->
    let rec link_all = function
      | a :: (b :: _ as tl) ->
        link a b;
        link_all tl
      | _ -> ()
    in
    link_all bufs;
    List.iter (fun b -> if b.issued = 0 then b.issued <- Sim.Time.now ()) bufs;
    let device_idle = s.tx_pending = [] in
    s.tx_pending <- s.tx_pending @ bufs;
    ring s ~device_idle head;
    arm_tx_deadline s bufs

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
      if p.Packet.pins <> [] then begin
        if not (Netstack.is_host s.stack) then Ostd.Dma.charge_zc_unmap ();
        Packet.release_pins p
      end;
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
  && Bytes.length p.Packet.payload > 0
  && p.Packet.flags land (Packet.syn lor Packet.fin lor Packet.rst) = 0

(* Materialise a pending merge as one super-segment: first part's seq
   and span ownership, last part's ack / window / PSH, payloads
   concatenated. A single-part merge hands back the original packet. *)
let gro_materialise g =
  if g.g_nparts = 1 then g.g_first
  else begin
    Sim.Stats.add "net.gro_merged" (g.g_nparts - 1);
    {
      g.g_first with
      Packet.payload = Bytes.concat Bytes.empty (List.rev g.g_parts);
      flags = Packet.ack_flag lor (g.g_last.Packet.flags land Packet.psh);
      ack = g.g_last.Packet.ack;
      win = g.g_last.Packet.win;
    }
  end

let gro_flush_flow s key =
  match Hashtbl.find_opt s.gro key with
  | None -> None
  | Some g ->
    Hashtbl.remove s.gro key;
    Some (gro_materialise g)

let gro_flush_all s =
  let out = Hashtbl.fold (fun _ g acc -> gro_materialise g :: acc) s.gro [] in
  Hashtbl.reset s.gro;
  out

(* Feed one reaped wire frame through the merge engine; returns whatever
   must be delivered to the stack right now (possibly nothing: the frame
   joined a pending merge). Flushes on PSH, on reaching
   [Packet.gso_max_size], and on any discontinuity in seq or flags. *)
let gro_rx s (p : Packet.t) =
  if not (gro_mergeable p) then
    match gro_flush_flow s (gro_key p) with Some m -> [ m; p ] | None -> [ p ]
  else begin
    let key = gro_key p in
    let len = Bytes.length p.Packet.payload in
    let cap = Packet.gso_max_size in
    let fits g = p.Packet.seq = g.g_next_seq && g.g_total + len <= cap in
    match Hashtbl.find_opt s.gro key with
    | Some g when fits g ->
      g.g_parts <- p.Packet.payload :: g.g_parts;
      g.g_nparts <- g.g_nparts + 1;
      g.g_next_seq <- g.g_next_seq + len;
      g.g_total <- g.g_total + len;
      g.g_last <- p;
      if p.Packet.flags land Packet.psh <> 0 || g.g_total >= cap then
        match gro_flush_flow s key with Some m -> [ m ] | None -> []
      else []
    | prior ->
      let flushed =
        match prior with
        | Some _ -> ( match gro_flush_flow s key with Some m -> [ m ] | None -> [])
        | None -> []
      in
      if p.Packet.flags land Packet.psh <> 0 then flushed @ [ p ]
      else begin
        Hashtbl.replace s.gro key
          {
            g_first = p;
            g_parts = [ p.Packet.payload ];
            g_nparts = 1;
            g_next_seq = p.Packet.seq + len;
            g_total = len;
            g_last = p;
          };
        flushed
      end
  end

let tp_drop_hw =
  Sim.Trace.point Sim.Trace.Net "drop" [| "len" |] (fun f ->
      Printf.sprintf "reason=checksum-hw len=%d" f.a)

(* One bottom-half pass: reap TX completions, deliver RX arrivals.
   Returns how many descriptors it serviced so the NAPI loop can decide
   whether to keep polling. *)
let reap_once s =
  let done_tx, still_tx =
    List.partition (fun b -> Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status <> unused_marker)
      s.tx_pending
  in
  s.tx_pending <- still_tx;
  List.iter
    (fun b ->
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
        (* TX complete: the device has read the payload off the pinned
           page-cache frames, so the zero-copy pins release here. *)
        (match b.pkt with
        | Some p when p.Packet.pins <> [] ->
          if not (Netstack.is_host s.stack) then Ostd.Dma.charge_zc_unmap ();
          Packet.release_pins p
        | Some _ | None -> ());
        release_buf s b
      end
      else retry_or_give_up s b)
    done_tx;
  let done_rx, still_rx =
    List.partition (fun b -> Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status <> unused_marker)
      s.rx_posted
  in
  s.rx_posted <- still_rx;
  let pkts =
    List.filter_map
      (fun b ->
        let used = Ostd.Untyped.read_u32 (frame_of b) ~off:desc_status in
        (* Checksum offload: the device verified the frame and wrote a
           verdict, so the stack skips its software pass. *)
        let verdict = Ostd.Untyped.read_u32 (frame_of b) ~off:Machine.Virtio_net.rx_desc_csum in
        let data = Bytes.create used in
        if not (Netstack.is_host s.stack) then Sim.Cost.charge_memcpy used;
        Ostd.Untyped.read_bytes (frame_of b) ~off:data_off ~buf:data ~pos:0 ~len:used;
        s.nrx <- s.nrx + 1;
        release_buf s b;
        post_rx s;
        if verdict <> Machine.Virtio_net.csum_verdict_ok then begin
          (* Same drop-and-retransmit semantics as the software checksum
             pass: the verification just happened in the NIC. *)
          Sim.Stats.incr "net.checksum_drop";
          Sim.Trace.emit1 tp_drop_hw used;
          None
        end
        else
          match Packet.decode ~verify:false data with
          | Some pkt -> Some pkt
          | None ->
            Sim.Stats.incr "virtio_net.bad_packet";
            None)
      done_rx
  in
  if (Sim.Profile.get ()).Sim.Profile.net_irq_coalesce then
    Netstack.rx_many s.stack (List.concat_map (gro_rx s) pkts)
  else List.iter (Netstack.rx s.stack) pkts;
  List.length done_tx + List.length done_rx

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
    (match gro_flush_all s with [] -> () | pending -> Netstack.rx_many s.stack pending);
    s.polling <- false;
    if not (Netstack.is_host s.stack) then Sim.Cost.charge_ring_update ();
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
        tx_pending = [];
        rx_posted = [];
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
