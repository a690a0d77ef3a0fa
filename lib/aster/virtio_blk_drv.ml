(* Descriptor layout shared with the device model (see Machine.Virtio_blk). *)
let desc_type = 0
let desc_len = 4
let desc_sector = 8
let desc_data = 16
let desc_status = 24
let desc_next = 32
let desc_done_ts = 40 (* device-written completion timestamp (cycles) *)
let status_pending = 0xff

type data_buf = Pooled of Ostd.Dma.Stream.t | Dynamic of Ostd.Dma.Stream.t

type pending = {
  bio : Block.bio;
  desc : Ostd.Dma.Stream.t;
  desc_pooled : bool;
  data : data_buf option;
}

type state = {
  window : Ostd.Io_mem.t;
  dev_id : int;
  desc_pool : Ostd.Dma.Pool.t;
  data_pool : Ostd.Dma.Pool.t;
  mutable pending : pending list;
  capacity : int;
}

let state : state option ref = ref None

let st () =
  match !state with
  | Some s -> s
  | None -> Ostd.Panic.panic "virtio-blk driver not initialised"

let in_flight () = match !state with Some s -> List.length s.pending | None -> 0

let stream_frame = Ostd.Dma.Stream.frame

let take_desc_buf s =
  let p = Sim.Profile.get () in
  if p.Sim.Profile.dma_pooling then
    match Ostd.Dma.Pool.alloc s.desc_pool with
    | Some b -> (b, true)
    | None -> (Ostd.Dma.Stream.map (Ostd.Frame.alloc ()) ~dev:s.dev_id, false)
  else (Ostd.Dma.Stream.map (Ostd.Frame.alloc ()) ~dev:s.dev_id, false)

let take_data_buf s =
  let p = Sim.Profile.get () in
  if p.Sim.Profile.dma_pooling && p.Sim.Profile.blk_pooling_complete then
    match Ostd.Dma.Pool.alloc s.data_pool with
    | Some b -> Pooled b
    | None -> Dynamic (Ostd.Dma.Stream.map (Ostd.Frame.alloc ()) ~dev:s.dev_id)
  else
    (* The incomplete-pooling path the paper describes for its block
       driver: data pages are mapped per request, so every I/O pays the
       map/unmap plus IOTLB invalidation. *)
    Dynamic (Ostd.Dma.Stream.map (Ostd.Frame.alloc ()) ~dev:s.dev_id)

let release_data_buf s = function
  | None -> ()
  | Some (Pooled b) -> Ostd.Dma.Pool.release s.data_pool b
  | Some (Dynamic b) -> Ostd.Dma.Stream.unmap b

(* Build the DMA descriptor (and data buffer) for one bio. Writes every
   descriptor field including a zero chain link; [link] stitches chains
   afterwards. Does not ring the doorbell. *)
let prepare s bio =
  let desc, desc_pooled = take_desc_buf s in
  let dframe = stream_frame desc in
  let op_code, data_buf =
    match Block.bio_op bio with
    | Block.Flush -> (2, None)
    | Block.Read -> (0, Some (take_data_buf s))
    | (Block.Write | Block.Write_fua) as op ->
      let db = take_data_buf s in
      let dst = match db with Pooled b | Dynamic b -> stream_frame b in
      (match Block.bio_frame bio with
      | Some src ->
        Sim.Cost.charge_memcpy (Block.bio_len bio);
        Ostd.Untyped.copy ~src ~src_off:0 ~dst ~dst_off:0 ~len:(Block.bio_len bio)
      | None -> ());
      ((if op = Block.Write_fua then 3 else 1), Some db)
  in
  let data_paddr =
    match data_buf with
    | Some (Pooled b) | Some (Dynamic b) -> Ostd.Dma.Stream.paddr b
    | None -> 0
  in
  Ostd.Untyped.write_u32 dframe ~off:desc_type op_code;
  Ostd.Untyped.write_u32 dframe ~off:desc_len (Block.bio_len bio);
  Ostd.Untyped.write_u64 dframe ~off:desc_sector (Int64.of_int (Block.bio_sector bio));
  Ostd.Untyped.write_u64 dframe ~off:desc_data (Int64.of_int data_paddr);
  Ostd.Untyped.write_u32 dframe ~off:desc_status status_pending;
  Ostd.Untyped.write_u64 dframe ~off:desc_next 0L;
  Ostd.Untyped.write_u64 dframe ~off:desc_done_ts 0L;
  { bio; desc; desc_pooled; data = data_buf }

let link prev next =
  Ostd.Untyped.write_u64 (stream_frame prev.desc) ~off:desc_next
    (Int64.of_int (Ostd.Dma.Stream.paddr next.desc))

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
  let device_idle = s.pending = [] in
  s.pending <- p :: s.pending;
  ring s ~device_idle p

(* Scatter-gather submission: one descriptor chain, one doorbell, and —
   on the device side — one completion interrupt for the whole run.
   Each bio still completes (or times out) individually via [reap]. *)
let submit_many bios =
  let s = st () in
  match List.map (prepare s) bios with
  | [] -> ()
  | head :: _ as ps ->
    let rec link_all = function
      | a :: (b :: _ as tl) ->
        link a b;
        link_all tl
      | _ -> ()
    in
    link_all ps;
    List.iter (fun p -> Block.note_issued p.bio) ps;
    let device_idle = s.pending = [] in
    s.pending <- List.rev_append ps s.pending;
    ring s ~device_idle head

(* Timeout path: the block layer has given up on this bio, but the
   device may still DMA into its buffers later. Quarantine them — unmap
   both streams without ever returning them to a pool, so a late write
   faults at the IOMMU instead of landing in reused memory (the Inv. 6
   story: hostile or stuck devices cannot corrupt kernel state). The
   leaked pool slots are the price of that safety, counted under
   [blk.pool_leaked] so /proc/kstat makes the shrinkage observable. *)
let cancel bio =
  let s = st () in
  let stale, keep = List.partition (fun p -> p.bio == bio) s.pending in
  s.pending <- keep;
  List.iter
    (fun p ->
      Sim.Stats.incr "virtio_blk.quarantined";
      if p.desc_pooled then Sim.Stats.incr "blk.pool_leaked";
      (match p.data with
      | Some (Pooled b) ->
        Sim.Stats.incr "blk.pool_leaked";
        Ostd.Dma.Stream.unmap b
      | Some (Dynamic b) -> Ostd.Dma.Stream.unmap b
      | None -> ());
      Ostd.Dma.Stream.unmap p.desc)
    stale

(* Bottom half: reap every descriptor the device has finished. *)
let reap () =
  let s = st () in
  let done_, still =
    List.partition
      (fun p -> Ostd.Untyped.read_u32 (stream_frame p.desc) ~off:desc_status <> status_pending)
      s.pending
  in
  s.pending <- still;
  List.iter
    (fun p ->
      let status = Ostd.Untyped.read_u32 (stream_frame p.desc) ~off:desc_status in
      (if status = 0 && Block.bio_op p.bio = Block.Read then
         match (Block.bio_frame p.bio, p.data) with
         | Some dst, Some (Pooled b | Dynamic b) ->
           Sim.Cost.charge_memcpy (Block.bio_len p.bio);
           Ostd.Untyped.copy ~src:(stream_frame b) ~src_off:0 ~dst ~dst_off:0
             ~len:(Block.bio_len p.bio)
         | _ -> ());
      release_data_buf s p.data;
      let done_ts = Int64.to_int (Ostd.Untyped.read_u64 (stream_frame p.desc) ~off:desc_done_ts) in
      if done_ts > 0 then Block.note_dev_done p.bio done_ts;
      if p.desc_pooled then Ostd.Dma.Pool.release s.desc_pool p.desc
      else Ostd.Dma.Stream.unmap p.desc;
      Block.complete_bio p.bio ~status:(if status = 0 then 0 else Errno.eio))
    done_

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
        pending = [];
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
