let sector_size = 512

let reg_magic = 0x00
let reg_device_id = 0x04
let reg_capacity = 0x08
let reg_queue_notify = 0x10

(* Bytes of one request descriptor, including the chain link at off 32
   and the device-written completion timestamp at off 40. A notify may
   name the head of a chain: the device walks [next] pointers (bounded,
   loop-safe) and services the whole chain with one completion
   interrupt — the per-batch doorbell/IRQ economy the batched block
   pipeline banks on. *)
let desc_size = 48

let max_chain = 128

(* Both the image and the write cache are kept in 4 KiB pages of eight
   sectors, so a block-sized request moves its data with one copy. *)
let page_size = 4096

let sectors_per_page = page_size / sector_size

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

(* The persistent disk image, distinct from everything volatile on the
   device (write cache, ring state). It is the only thing that survives
   a power cut, and can be carried across [Board.reset] into a fresh
   boot to model remount-after-crash. [persists] counts sectors made
   durable — every increment is an enumerable crash boundary. *)
type disk = {
  dcap : int;
  pages : Bytes.t array; (* page -> 4 KiB; [Bytes.empty] until first written: zeroes *)
  mutable persists : int;
}

let create_disk ~capacity_sectors =
  let npages = (capacity_sectors + sectors_per_page - 1) / sectors_per_page in
  { dcap = capacity_sectors; pages = Array.make npages Bytes.empty; persists = 0 }

let clone_disk d =
  { d with pages = Array.map (fun b -> if Bytes.length b = 0 then b else Bytes.copy b) d.pages }

(* One page of the volatile write cache: bit k of [mask] is set while
   sector k of the page holds data the image does not have yet. *)
type cpage = { data : Bytes.t; mutable mask : int }

(* Stands in for a page with nothing cached; never written to. *)
let no_page = { data = Bytes.empty; mask = 0 }

type t = {
  dev_id : int;
  vector : int;
  capacity : int;
  disk : disk;
  cache : cpage Itbl.t; (* volatile write cache, keyed by page *)
  queue : int Queue.t; (* pending descriptor (chain head) paddrs *)
  mutable busy : bool;
  mutable dead : bool; (* power has been cut; device is gone *)
  mutable completed : int;
  mutable failed : int;
  mutable chains : int;
  mutable flushes : int;
  mutable fua_writes : int;
  mutable irqs_raised : int;
  mutable irq_pending : bool;
  mutable irq_missed : bool;
}

let capacity_sectors t = t.capacity

let disk_image t = t.disk

let persist_count t = t.disk.persists

let is_dead t = t.dead

let flushes t = t.flushes

let fua_writes t = t.fua_writes

let disk_page d p =
  let b = d.pages.(p) in
  if Bytes.length b > 0 then b
  else begin
    let b = Bytes.make page_size '\000' in
    d.pages.(p) <- b;
    b
  end

let cached_page t p = match Itbl.find_opt t.cache p with Some cp -> cp | None -> no_page

let cache_page t p =
  match Itbl.find_opt t.cache p with
  | Some cp -> cp
  | None ->
    let cp = { data = Bytes.create page_size; mask = 0 } in
    Itbl.add t.cache p cp;
    cp

(* Forget a cached copy of sector [s]: the image now holds newer bytes. *)
let uncache_sector t s =
  match Itbl.find_opt t.cache (s / sectors_per_page) with
  | Some cp -> cp.mask <- cp.mask land lnot (1 lsl (s mod sectors_per_page))
  | None -> ()

(* DMA what a read observes of sectors [k, k + n) of page [p] to
   [paddr]: the write cache shadows the image — the device's RAM is
   coherent even before a flush makes it durable. One copy per run of
   sectors that share a source; an unwritten image page reads as
   zeroes. *)
let page_out t p ~k ~n ~paddr =
  let cp = cached_page t p in
  let j = ref k in
  while !j < k + n do
    let cached = cp.mask land (1 lsl !j) <> 0 in
    let e = ref (!j + 1) in
    while !e < k + n && cp.mask land (1 lsl !e) <> 0 = cached do
      incr e
    done;
    let src = if cached then cp.data else t.disk.pages.(p) in
    let paddr = paddr + ((!j - k) * sector_size) and len = (!e - !j) * sector_size in
    if Bytes.length src = 0 then Phys.fill ~paddr ~len '\000'
    else Phys.write ~paddr src ~off:(!j * sector_size) ~len;
    j := !e
  done

(* Power cut: everything volatile is gone. The in-flight ring is
   dropped (no status writes, no interrupts — outstanding bios hit the
   kernel's deadline and surface as EIO), the write cache evaporates,
   and the device stops responding until the next boot re-creates it
   around the same disk image. *)
let power_cut t =
  t.dead <- true;
  Itbl.reset t.cache;
  Queue.clear t.queue;
  Sim.Stats.incr "virtio_blk.power_cut";
  Logs.debug (fun m ->
      m "virtio-blk: power cut after %d persisted sectors" t.disk.persists)

(* The crash boundary in front of every sector made durable: the
   [blk.power_cut] trigger fires *before* the copy, so crash point k
   means exactly k sectors hit stable storage. Returns [false] when the
   power cut fired. *)
let may_persist t =
  if Sim.Fault.countdown "blk.power_cut" then begin
    power_cut t;
    false
  end
  else begin
    t.disk.persists <- t.disk.persists + 1;
    true
  end

(* Persist the cached sectors of page [p], lowest first. *)
let persist_page t p cp =
  let alive = ref true and k = ref 0 in
  while !alive && !k < sectors_per_page do
    if cp.mask land (1 lsl !k) <> 0 then
      if may_persist t then
        Bytes.blit cp.data (!k * sector_size) (disk_page t.disk p) (!k * sector_size) sector_size
      else alive := false;
    incr k
  done;
  !alive

(* Drain the write cache to the disk image, lowest sector first. The
   deterministic order is deliberate: it enumerates crash points
   stably for a given workload, and sorting (rather than insertion
   order) models the reordering freedom a real drive has between
   barriers. Emptying the cache with [reset] also shrinks its table, so
   the next flush costs what that flush has to write. *)
let flush_cache t =
  let dirty = List.sort Int.compare (Itbl.fold (fun p _ acc -> p :: acc) t.cache []) in
  t.flushes <- t.flushes + 1;
  List.for_all (fun p -> persist_page t p (Itbl.find t.cache p)) dirty
  && begin
    Itbl.reset t.cache;
    true
  end

(* Out-of-band host access used by tests and mkfs-style tooling:
   writes go straight to the disk image (no crash boundaries counted),
   reads observe cache-then-disk like the device itself would. *)
let write_backing t ~sector data =
  let len = Bytes.length data in
  assert (len mod sector_size = 0);
  for i = 0 to (len / sector_size) - 1 do
    let s = sector + i in
    uncache_sector t s;
    Bytes.blit data (i * sector_size)
      (disk_page t.disk (s / sectors_per_page))
      (s mod sectors_per_page * sector_size)
      sector_size
  done

let read_backing t ~sector ~len =
  assert (len mod sector_size = 0);
  let out = Bytes.make len '\000' in
  for i = 0 to (len / sector_size) - 1 do
    let p = (sector + i) / sectors_per_page and k = (sector + i) mod sectors_per_page in
    let cp = cached_page t p in
    let src = if cp.mask land (1 lsl k) <> 0 then cp.data else t.disk.pages.(p) in
    if Bytes.length src > 0 then Bytes.blit src (k * sector_size) out (i * sector_size) sector_size
  done;
  out

let requests_completed t = t.completed

let requests_failed t = t.failed

let chains_processed t = t.chains

let irqs_raised t = t.irqs_raised

let dma_fault t what e =
  t.failed <- t.failed + 1;
  Sim.Stats.incr "virtio_blk.dma_fault";
  Logs.debug (fun m -> m "virtio-blk: DMA fault on %s: %s" what e)

(* Interrupt mitigation with a missed-work flag: completions landing
   while an interrupt is still pending re-raise once it has been taken,
   so no completion is ever silently lost. *)
let rec raise_coalesced t =
  if t.irq_pending then t.irq_missed <- true
  else begin
    t.irq_pending <- true;
    t.irqs_raised <- t.irqs_raised + 1;
    Irq_chip.raise_irq (Irq_chip.Device t.dev_id) ~vector:t.vector;
    ignore
      (Sim.Events.schedule_after 1 (fun () ->
           t.irq_pending <- false;
           if t.irq_missed then begin
             t.irq_missed <- false;
             raise_coalesced t
           end))
  end

(* Service one descriptor: DMA the descriptor, move the data, write
   status. Runs as a device event, not kernel code. Returns [true] when
   the status word was written (the request deserves an interrupt) —
   the caller raises one interrupt per chain, not per descriptor.

   Request types: 0 read, 1 write (into the volatile cache), 2 flush
   (drain cache to the disk image), 3 FUA write (write-through: the
   sectors are durable before the completion fires). *)
let execute_one t desc_paddr =
  if t.dead then false
  else begin
    let hdr = Bytes.create 24 in
    match Iommu.access ~dev:t.dev_id ~paddr:desc_paddr ~len:desc_size with
    | Error e ->
      dma_fault t "descriptor" e;
      false
    | Ok () ->
      Phys.read ~paddr:desc_paddr hdr ~off:0 ~len:24;
      let typ = Int32.to_int (Bytes.get_int32_le hdr 0) in
      let len = Int32.to_int (Bytes.get_int32_le hdr 4) in
      let sector = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let data_paddr = Int64.to_int (Bytes.get_int64_le hdr 16) in
      let finish status =
        (* Fault plane: a hostile/flaky disk. An injected error completes
           with status 1; an injected drop never writes the status word —
           the kernel's per-bio deadline must notice. Mid-chain, a drop or
           error hits only this descriptor; its neighbours complete. *)
        if t.dead then false
        else if Sim.Fault.roll "blk.drop" then begin
          t.failed <- t.failed + 1;
          Sim.Stats.incr "virtio_blk.dropped_completion";
          false
        end
        else begin
          let status = if status = 0 && Sim.Fault.roll "blk.io_error" then 1 else status in
          (* Completion stamp, written unconditionally alongside the
             status word so enabling kspan changes nothing the device
             does: the driver splits service time from IRQ-delivery
             delay with it. *)
          Phys.write_u64 (desc_paddr + 40) (Int64.of_int (Sim.Time.now ()));
          Phys.write_u32 (desc_paddr + 24) status;
          if status = 0 then t.completed <- t.completed + 1 else t.failed <- t.failed + 1;
          true
        end
      in
      let nsect = len / sector_size in
      let in_range = sector >= 0 && nsect >= 0 && sector + nsect <= t.capacity in
      if (not in_range) || len mod sector_size <> 0 then finish 1
      else begin
        match typ with
        | 2 (* flush: the only ordinary path to durability *) ->
          if flush_cache t then finish 0 else false
        | 0 (* read: device writes into memory *) -> (
          match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
          | Error e ->
            dma_fault t "data (read)" e;
            finish 1
          | Ok () ->
            let i = ref 0 in
            while !i < nsect do
              let s = sector + !i in
              let k = s mod sectors_per_page in
              let n = Int.min (nsect - !i) (sectors_per_page - k) in
              page_out t (s / sectors_per_page) ~k ~n ~paddr:(data_paddr + (!i * sector_size));
              i := !i + n
            done;
            finish 0)
        | 1 (* write: device reads from memory into its cache *) -> (
          match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
          | Error e ->
            dma_fault t "data (write)" e;
            finish 1
          | Ok () ->
            let i = ref 0 in
            while !i < nsect do
              let s = sector + !i in
              let k = s mod sectors_per_page in
              let n = Int.min (nsect - !i) (sectors_per_page - k) in
              let cp = cache_page t (s / sectors_per_page) in
              Phys.read ~paddr:(data_paddr + (!i * sector_size)) cp.data ~off:(k * sector_size)
                ~len:(n * sector_size);
              cp.mask <- cp.mask lor (((1 lsl n) - 1) lsl k);
              i := !i + n
            done;
            finish 0)
        | 3 (* FUA write: each sector goes straight to the image *) -> (
          match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
          | Error e ->
            dma_fault t "data (write)" e;
            finish 1
          | Ok () ->
            let ok = ref true and i = ref 0 in
            while !ok && !i < nsect do
              let s = sector + !i in
              if may_persist t then begin
                uncache_sector t s;
                Phys.read ~paddr:(data_paddr + (!i * sector_size))
                  (disk_page t.disk (s / sectors_per_page))
                  ~off:(s mod sectors_per_page * sector_size)
                  ~len:sector_size
              end
              else ok := false;
              incr i
            done;
            t.fua_writes <- t.fua_writes + 1;
            if !ok then finish 0 else false)
        | _ -> finish 1
      end
  end

(* Walk the [next] pointers from a chain head. Bounded at [max_chain]
   and tolerant of garbage pointers (a hostile kernel can link the chain
   anywhere; the walk just ends). Security-relevant accesses — the
   descriptor body and the data buffer — still go through the IOMMU in
   [execute_one]. *)
let chain_of head =
  let rec go acc paddr n =
    if paddr = 0 || n >= max_chain then List.rev acc
    else begin
      let next =
        if Phys.valid ~paddr ~len:desc_size then Int64.to_int (Phys.read_u64 (paddr + 32))
        else 0
      in
      go (paddr :: acc) next (n + 1)
    end
  in
  go [] head 0

(* Latency model: the first request of a chain pays the full per-op
   device latency; each chained descriptor adds only the smaller
   per-descriptor cost. The per-byte (bandwidth) part is paid in full
   either way — batching amortises overheads, not the media. *)
let chain_latency descs =
  let c = Sim.Cost.c () in
  let byte_cycles len = int_of_float (float_of_int len /. max 0.001 c.Sim.Profile.blk_dev_bpc) in
  List.fold_left
    (fun (i, acc) paddr ->
      let len = try Phys.read_u32 (paddr + 4) with Invalid_argument _ -> 0 in
      let base =
        if i = 0 then Sim.Time.of_us c.Sim.Profile.blk_us_per_op
        else Sim.Time.of_us c.Sim.Profile.blk_us_per_desc
      in
      (i + 1, acc + base + byte_cycles len))
    (0, 0) descs
  |> snd

let rec pump t =
  if t.dead then begin
    Queue.clear t.queue;
    t.busy <- false
  end
  else
    match Queue.take_opt t.queue with
    | None -> t.busy <- false
    | Some head ->
      t.busy <- true;
      let descs = chain_of head in
      if List.length descs > 1 then t.chains <- t.chains + 1;
      (* Injected service-time jitter: up to ~2 ms of extra latency, enough
         to trip a first-attempt bio deadline but not a retried one.
         Charged once per chain, like the real head-of-line blocking it
         models. *)
      let jitter = Sim.Fault.delay_cycles "blk.delay" ~max_cycles:(Sim.Time.of_us 2000.) in
      ignore
        (Sim.Events.schedule_after
           (chain_latency descs + jitter)
           (fun () ->
             let any =
               List.fold_left (fun acc d -> if execute_one t d then true else acc) false descs
             in
             (* One completion interrupt for the whole chain. *)
             if any then raise_coalesced t;
             pump t))

let notify t desc_paddr =
  if not t.dead then begin
    Queue.push desc_paddr t.queue;
    if not t.busy then pump t
  end

let create ?disk ~capacity_sectors ~mmio_base ~dev_id ~vector () =
  let disk =
    match disk with
    | Some d ->
      assert (d.dcap = capacity_sectors);
      d
    | None -> create_disk ~capacity_sectors
  in
  let t =
    {
      dev_id;
      vector;
      capacity = capacity_sectors;
      disk;
      cache = Itbl.create 256;
      queue = Queue.create ();
      busy = false;
      dead = false;
      completed = 0;
      failed = 0;
      chains = 0;
      flushes = 0;
      fua_writes = 0;
      irqs_raised = 0;
      irq_pending = false;
      irq_missed = false;
    }
  in
  let read ~off ~len:_ =
    if off = reg_magic then 0x74726976L
    else if off = reg_device_id then 2L
    else if off = reg_capacity then Int64.of_int t.capacity
    else 0L
  in
  let write ~off ~len:_ v = if off = reg_queue_notify then notify t (Int64.to_int v) in
  Mmio.register
    { base = mmio_base; size = 0x100; name = "virtio-blk"; sensitive = false; read; write };
  Bus.register
    { Bus.dev_id; kind = Bus.Blk; mmio_base; mmio_size = 0x100; vector };
  t
