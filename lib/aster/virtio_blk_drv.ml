(* Descriptor layout shared with the device model (see Machine.Virtio_blk). *)
let desc_type = 0
let desc_len = 4
let desc_sector = 8
let desc_data = 16
let desc_status = 24
let desc_next = 32
let desc_done_ts = 40 (* device-written completion timestamp (cycles) *)
let status_pending = 0xff

(* One request the device has been handed. [data] is the bounce buffer
   of a data op, from the pool when [data_pooled]. *)
type pending = {
  bio : Block.bio;
  desc : Ostd.Dma.Stream.t;
  desc_pooled : bool;
  data : Ostd.Dma.Stream.t option;
  data_pooled : bool;
}

(* [pending.(0 .. npending - 1)] holds the requests the device has been
   handed, oldest first; completions and cancels walk it newest first. *)
type state = {
  window : Ostd.Io_mem.t;
  dev_id : int;
  desc_pool : Ostd.Dma.Pool.t;
  data_pool : Ostd.Dma.Pool.t;
  mutable pending : pending array;
  mutable npending : int;
  capacity : int;
}

let state : state option ref = ref None

let st () =
  match !state with
  | Some s -> s
  | None -> Ostd.Panic.panic "virtio-blk driver not initialised"

let in_flight () = match !state with Some s -> s.npending | None -> 0

let stream_frame = Ostd.Dma.Stream.frame

let fresh_buf s = Ostd.Dma.Stream.map (Ostd.Frame.alloc ()) ~dev:s.dev_id

(* Build the DMA descriptor (and data buffer) for one bio. Writes every
   descriptor field including a zero chain link; [link] stitches chains
   afterwards. Does not ring the doorbell. *)
let prepare s bio =
  let p = Sim.Profile.get () in
  let desc_pooled = if p.Sim.Profile.dma_pooling then Ostd.Dma.Pool.alloc s.desc_pool else None in
  let desc = match desc_pooled with Some b -> b | None -> fresh_buf s in
  let dframe = stream_frame desc in
  let op = Block.bio_op bio in
  (* Without complete pooling — the incomplete-pooling path the paper
     describes for its block driver — data pages are mapped per
     request, so every I/O pays the map/unmap plus IOTLB invalidation. *)
  let data_pooled =
    if op <> Block.Flush && p.Sim.Profile.dma_pooling && p.Sim.Profile.blk_pooling_complete
    then Ostd.Dma.Pool.alloc s.data_pool
    else None
  in
  let data =
    match data_pooled with
    | Some _ -> data_pooled
    | None -> if op = Block.Flush then None else Some (fresh_buf s)
  in
  (match (op, data, Block.bio_frame bio) with
  | (Block.Write | Block.Write_fua), Some dst, Some src ->
    Sim.Cost.charge_memcpy (Block.bio_len bio);
    Ostd.Untyped.copy ~src ~src_off:0 ~dst:(stream_frame dst) ~dst_off:0 ~len:(Block.bio_len bio)
  | _ -> ());
  let op_code =
    match op with Block.Flush -> 2 | Block.Read -> 0 | Block.Write -> 1 | Block.Write_fua -> 3
  in
  let data_paddr = match data with Some b -> Ostd.Dma.Stream.paddr b | None -> 0 in
  Ostd.Untyped.write_u32 dframe ~off:desc_type op_code;
  Ostd.Untyped.write_u32 dframe ~off:desc_len (Block.bio_len bio);
  Ostd.Untyped.write_u64 dframe ~off:desc_sector (Int64.of_int (Block.bio_sector bio));
  Ostd.Untyped.write_u64 dframe ~off:desc_data (Int64.of_int data_paddr);
  Ostd.Untyped.write_u32 dframe ~off:desc_status status_pending;
  Ostd.Untyped.write_u64 dframe ~off:desc_next 0L;
  Ostd.Untyped.write_u64 dframe ~off:desc_done_ts 0L;
  {
    bio;
    desc;
    desc_pooled = Option.is_some desc_pooled;
    data;
    data_pooled = Option.is_some data_pooled;
  }

let link prev next =
  Ostd.Untyped.write_u64 (stream_frame prev.desc) ~off:desc_next
    (Int64.of_int (Ostd.Dma.Stream.paddr next.desc))

let add_pending s p =
  if s.npending = Array.length s.pending then begin
    let grown = Array.make (Int.max 16 (2 * s.npending)) p in
    Array.blit s.pending 0 grown 0 s.npending;
    s.pending <- grown
  end;
  s.pending.(s.npending) <- p;
  s.npending <- s.npending + 1

(* Ring the doorbell for the chain head — with suppression, as with the
   NIC: a busy device keeps pulling from its queue without another VM
   exit. [device_idle] must be sampled before the requests are added to
   [s.pending]. *)
let ring s ~device_idle head =
  let head_paddr = Int64.of_int (Ostd.Dma.Stream.paddr head.desc) in
  if device_idle then begin
    Sim.Stats.incr "blk.doorbell";
    Ostd.Io_mem.doorbell s.window ~off:Machine.Virtio_blk.reg_queue_notify head_paddr
  end
  else begin
    Sim.Stats.incr "blk.notify_suppressed";
    Sim.Cost.charge 60;
    Machine.Mmio.write
      ~addr:(Ostd.Io_mem.base s.window + Machine.Virtio_blk.reg_queue_notify)
      ~len:8 head_paddr
  end

let submit bio =
  let s = st () in
  let p = prepare s bio in
  Block.note_issued bio;
  let device_idle = s.npending = 0 in
  add_pending s p;
  ring s ~device_idle p

(* Scatter-gather submission of [bios.(first .. first + len - 1)]: one
   descriptor chain, one doorbell, and — on the device side — one
   completion interrupt for the whole run. Each bio still completes (or
   times out) individually via [reap]. The chain is prepared into
   [pending] directly and linked there. *)
let submit_many bios ~first ~len =
  if len > 0 then begin
    let s = st () in
    let device_idle = s.npending = 0 and base = s.npending in
    for k = first to first + len - 1 do
      add_pending s (prepare s bios.(k))
    done;
    for i = base to base + len - 2 do
      link s.pending.(i) s.pending.(i + 1)
    done;
    for i = base to base + len - 1 do
      Block.note_issued s.pending.(i).bio
    done;
    ring s ~device_idle s.pending.(base)
  end

(* Remove [pending.(i)], keeping the order of the rest. *)
let remove_pending s i =
  Array.blit s.pending (i + 1) s.pending i (s.npending - i - 1);
  s.npending <- s.npending - 1

(* Timeout path: the block layer has given up on this bio, but the
   device may still DMA into its buffers later. Quarantine them — unmap
   both streams without ever returning them to a pool, so a late write
   faults at the IOMMU instead of landing in reused memory (the Inv. 6
   story: hostile or stuck devices cannot corrupt kernel state). The
   leaked pool slots are the price of that safety, counted under
   [blk.pool_leaked] so /proc/kstat makes the shrinkage observable. *)
let cancel bio =
  let s = st () in
  for i = s.npending - 1 downto 0 do
    let p = s.pending.(i) in
    if p.bio == bio then begin
      remove_pending s i;
      Sim.Stats.incr "virtio_blk.quarantined";
      if p.desc_pooled then Sim.Stats.incr "blk.pool_leaked";
      (match p.data with
      | Some b ->
        if p.data_pooled then Sim.Stats.incr "blk.pool_leaked";
        Ostd.Dma.Stream.unmap b
      | None -> ());
      Ostd.Dma.Stream.unmap p.desc
    end
  done

let status_of p = Ostd.Untyped.read_u32 (stream_frame p.desc) ~off:desc_status

(* Finish one request the device has answered: copy a read's data out
   of its bounce buffer, release the buffers, and report the attempt. *)
let finish s p =
  let status = status_of p in
  (match p.data with
  | Some b ->
    (if status = 0 && Block.bio_op p.bio = Block.Read then
       match Block.bio_frame p.bio with
       | Some dst ->
         Sim.Cost.charge_memcpy (Block.bio_len p.bio);
         Ostd.Untyped.copy ~src:(stream_frame b) ~src_off:0 ~dst ~dst_off:0
           ~len:(Block.bio_len p.bio)
       | None -> ());
    if p.data_pooled then Ostd.Dma.Pool.release s.data_pool b else Ostd.Dma.Stream.unmap b
  | None -> ());
  let stamp = Int64.to_int (Ostd.Untyped.read_u64 (stream_frame p.desc) ~off:desc_done_ts) in
  if p.desc_pooled then Ostd.Dma.Pool.release s.desc_pool p.desc
  else Ostd.Dma.Stream.unmap p.desc;
  Block.attempt_done p.bio ~status:(if status = 0 then 0 else Errno.eio) ~stamp

(* Bottom half: reap every descriptor the device has finished, newest
   first. Every answered request leaves [pending] before the first is
   finished; [answered] holds them meanwhile, newest first, while the
   rest close up at the top of [pending] and then move down. *)
let answered : pending array ref = ref [||]

let reap () =
  let s = st () in
  let n = ref 0 and top = ref s.npending in
  for i = s.npending - 1 downto 0 do
    let p = s.pending.(i) in
    if status_of p <> status_pending then begin
      if !n = Array.length !answered then begin
        let grown = Array.make (Int.max 16 (2 * !n)) p in
        Array.blit !answered 0 grown 0 !n;
        answered := grown
      end;
      !answered.(!n) <- p;
      incr n
    end
    else begin
      decr top;
      s.pending.(!top) <- p
    end
  done;
  Array.blit s.pending !top s.pending 0 (s.npending - !top);
  s.npending <- s.npending - !top;
  for i = 0 to !n - 1 do
    finish s !answered.(i)
  done

let init () =
  match Ostd.Bus_probe.find `Blk with
  | None -> Ostd.Panic.panic "virtio-blk: no device on the bus"
  | Some dev ->
    let window =
      match Ostd.Io_mem.acquire ~base:dev.Ostd.Bus_probe.mmio_base ~size:dev.Ostd.Bus_probe.mmio_size with
      | Ok w -> w
      | Error e -> Ostd.Panic.panic e
    in
    let capacity =
      Int64.to_int (Ostd.Io_mem.read_once window ~off:Machine.Virtio_blk.reg_capacity ~len:8)
    in
    let dev_id = dev.Ostd.Bus_probe.dev_id in
    let s =
      {
        window;
        dev_id;
        desc_pool = Ostd.Dma.Pool.create ~dev:dev_id ~buf_pages:1 ~count:64;
        data_pool = Ostd.Dma.Pool.create ~dev:dev_id ~buf_pages:1 ~count:64;
        pending = [||];
        npending = 0;
        capacity;
      }
    in
    state := Some s;
    let line = Ostd.Irq.claim ~vector:dev.Ostd.Bus_probe.vector ~name:"virtio-blk" () in
    Ostd.Irq.set_handler line (fun () ->
        Sim.Stats.incr "blk.irq";
        Softirq.raise_softirq reap);
    Ostd.Irq.bind_device line ~dev:dev_id;
    let module D = struct
      let capacity_sectors () = (st ()).capacity

      let submit = submit

      let submit_many = submit_many

      let cancel = cancel
    end in
    Block.register_driver (module D)
