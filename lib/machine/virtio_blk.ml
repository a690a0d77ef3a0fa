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

let full_page = (1 lsl sectors_per_page) - 1

type t = {
  dev_id : int;
  vector : int;
  irq_source : Irq_chip.source;
  capacity : int;
  disk : disk;
  cache : cpage Itbl.t; (* volatile write cache, keyed by page *)
  (* 4 KiB buffers the last flush freed: image pages a handed-over cache
     page displaced, and the buffers of pages copied in part. The next
     cached writes take their buffers from here; the next flush drops
     what is left. *)
  mutable spares : Bytes.t list;
  queue : int Queue.t; (* pending descriptor (chain head) paddrs *)
  chain : int array; (* descriptor paddrs of the chain in service *)
  mutable chain_len : int;
  mutable service : unit -> unit; (* services [chain]; made once *)
  mutable irq_taken : unit -> unit; (* ends an interrupt's pending window *)
  mutable busy : bool;
  mutable dead : bool; (* power has been cut; device is gone *)
  mutable completed : int;
  mutable irq_pending : bool;
  mutable irq_missed : bool;
}

let disk_image t = t.disk

let persist_count t = t.disk.persists

let is_dead t = t.dead

let disk_page d p =
  let b = d.pages.(p) in
  if Bytes.length b > 0 then b
  else begin
    let b = Bytes.make page_size '\000' in
    d.pages.(p) <- b;
    b
  end

(* Lookups raise rather than return an option, so a hit allocates
   nothing. *)
let cached_mask t p = match Itbl.find t.cache p with cp -> cp.mask | exception Not_found -> 0

let cache_page t p =
  match Itbl.find t.cache p with
  | cp -> cp
  | exception Not_found ->
    let data =
      match t.spares with
      | b :: rest ->
        t.spares <- rest;
        b
      | [] -> Bytes.create page_size
    in
    let cp = { data; mask = 0 } in
    Itbl.add t.cache p cp;
    cp

(* Forget a cached copy of sector [s]: the image now holds newer bytes. *)
let uncache_sector t s =
  match Itbl.find t.cache (s / sectors_per_page) with
  | cp -> cp.mask <- cp.mask land lnot (1 lsl (s mod sectors_per_page))
  | exception Not_found -> ()

(* DMA what a read observes of sectors [k, k + n) of page [p] to
   [paddr]: the write cache shadows the image — the device's RAM is
   coherent even before a flush makes it durable. One copy per run of
   sectors that share a source; an unwritten image page reads as
   zeroes. *)
let page_out t p ~k ~n ~paddr =
  let mask = cached_mask t p in
  let j = ref k in
  while !j < k + n do
    let cached = mask land (1 lsl !j) <> 0 in
    let e = ref (!j + 1) in
    while !e < k + n && mask land (1 lsl !e) <> 0 = cached do
      incr e
    done;
    let src = if cached then (Itbl.find t.cache p).data else t.disk.pages.(p) in
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
  t.spares <- [];
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

(* Persist the cached sectors of page [p], lowest first, each behind
   its crash boundary. A wholly cached page that persists whole becomes
   the image page: its buffer is handed to the image rather than
   copied, and the page it displaces becomes a spare. Any other page is
   copied sector by sector, up to the cut if the power fails, and a
   page that persists keeps its buffer as a spare. *)
let persist_page t p cp =
  let alive = ref true and k = ref 0 in
  while !alive && !k < sectors_per_page do
    if cp.mask land (1 lsl !k) <> 0 && not (may_persist t) then alive := false else incr k
  done;
  if !alive && cp.mask = full_page then begin
    let old = t.disk.pages.(p) in
    t.disk.pages.(p) <- cp.data;
    if Bytes.length old > 0 then t.spares <- old :: t.spares
  end
  else begin
    for j = 0 to !k - 1 do
      if cp.mask land (1 lsl j) <> 0 then
        Bytes.blit cp.data (j * sector_size) (disk_page t.disk p) (j * sector_size) sector_size
    done;
    if !alive then t.spares <- cp.data :: t.spares
  end;
  !alive

(* Drain the write cache to the disk image, lowest page first. The
   deterministic order is deliberate: it enumerates crash points
   stably for a given workload, and sorting (rather than insertion
   order) models the reordering freedom a real drive has between
   barriers. Spares the previous flush left are dropped first, so the
   pages a flush frees are kept only until the next. Emptying the cache
   with [reset] also shrinks its table, so the next flush costs what
   that flush has to write. *)
let flush_cache t =
  t.spares <- [];
  let pages = Array.make (Itbl.length t.cache) 0 and n = ref 0 in
  Itbl.iter
    (fun p _ ->
      pages.(!n) <- p;
      incr n)
    t.cache;
  Array.sort Int.compare pages;
  let alive = ref true and i = ref 0 in
  while !alive && !i < !n do
    alive := persist_page t pages.(!i) (Itbl.find t.cache pages.(!i));
    incr i
  done;
  if !alive then Itbl.reset t.cache;
  !alive

(* Out-of-band host read used by tests and crash tooling: observes
   cache-then-disk like the device itself would. *)
let read_backing t ~sector ~len =
  assert (len mod sector_size = 0);
  let out = Bytes.make len '\000' in
  for i = 0 to (len / sector_size) - 1 do
    let p = (sector + i) / sectors_per_page and k = (sector + i) mod sectors_per_page in
    let src =
      if cached_mask t p land (1 lsl k) <> 0 then (Itbl.find t.cache p).data
      else t.disk.pages.(p)
    in
    if Bytes.length src > 0 then Bytes.blit src (k * sector_size) out (i * sector_size) sector_size
  done;
  out

let requests_completed t = t.completed

let dma_fault what e =
  Sim.Stats.incr "virtio_blk.dma_fault";
  Logs.debug (fun m -> m "virtio-blk: DMA fault on %s: %s" what e)

(* Interrupt mitigation with a missed-work flag: completions landing
   while an interrupt is still pending re-raise once it has been taken,
   so no completion is ever silently lost. *)
let raise_coalesced t =
  if t.irq_pending then t.irq_missed <- true
  else begin
    t.irq_pending <- true;
    Irq_chip.raise_irq t.irq_source ~vector:t.vector;
    ignore (Sim.Events.schedule_after 1 t.irq_taken)
  end

let irq_taken t =
  t.irq_pending <- false;
  if t.irq_missed then begin
    t.irq_missed <- false;
    raise_coalesced t
  end

(* The device reads one descriptor at a time into this buffer, and
   stamps completions from it: device events never nest. *)
let scratch = Bytes.create 24

let u32_at off = Int32.to_int (Bytes.get_int32_le scratch off)

let u64_at off = Int64.to_int (Bytes.get_int64_le scratch off)

(* Fault plane: a hostile/flaky disk. An injected error completes with
   status 1; an injected drop never writes the status word — the
   kernel's per-bio deadline must notice. Mid-chain, a drop or error
   hits only this descriptor; its neighbours complete. *)
let finish t desc_paddr status =
  if t.dead then false
  else if Sim.Fault.roll "blk.drop" then begin
    Sim.Stats.incr "virtio_blk.dropped_completion";
    false
  end
  else begin
    let status = if status = 0 && Sim.Fault.roll "blk.io_error" then 1 else status in
    (* Completion stamp, written unconditionally alongside the status
       word so enabling kspan changes nothing the device does: the
       driver splits service time from IRQ-delivery delay with it. *)
    Bytes.set_int64_le scratch 0 (Int64.of_int (Sim.Time.now ()));
    Phys.write ~paddr:(desc_paddr + 40) scratch ~off:0 ~len:8;
    Phys.write_u32 (desc_paddr + 24) status;
    if status = 0 then t.completed <- t.completed + 1;
    true
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
  else
    match Iommu.access ~dev:t.dev_id ~paddr:desc_paddr ~len:desc_size with
    | Error e ->
      dma_fault "descriptor" e;
      false
    | Ok () -> (
      Phys.read ~paddr:desc_paddr scratch ~off:0 ~len:24;
      let typ = u32_at 0 and len = u32_at 4 and sector = u64_at 8 and data_paddr = u64_at 16 in
      let nsect = len / sector_size in
      let in_range = sector >= 0 && nsect >= 0 && sector + nsect <= t.capacity in
      if (not in_range) || len mod sector_size <> 0 then finish t desc_paddr 1
      else if typ = 2 (* flush: the only ordinary path to durability *) then
        flush_cache t && finish t desc_paddr 0
      else if typ < 0 || typ > 3 then finish t desc_paddr 1
      else
        match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
        | Error e ->
          dma_fault (if typ = 0 then "data (read)" else "data (write)") e;
          finish t desc_paddr 1
        | Ok () when typ = 0 (* read: device writes into memory *) ->
          let i = ref 0 in
          while !i < nsect do
            let s = sector + !i in
            let k = s mod sectors_per_page in
            let n = Int.min (nsect - !i) (sectors_per_page - k) in
            page_out t (s / sectors_per_page) ~k ~n ~paddr:(data_paddr + (!i * sector_size));
            i := !i + n
          done;
          finish t desc_paddr 0
        | Ok () when typ = 1 (* write: device reads from memory into its cache *) ->
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
          finish t desc_paddr 0
        | Ok () (* FUA write: each sector goes straight to the image *) ->
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
          !ok && finish t desc_paddr 0)

(* Walk the [next] pointers from a chain head into [t.chain]. Bounded
   at [max_chain] and tolerant of garbage pointers (a hostile kernel can
   link the chain anywhere; the walk just ends). Security-relevant
   accesses — the descriptor body and the data buffer — still go
   through the IOMMU in [execute_one]. *)
let load_chain t head =
  let n = ref 0 and paddr = ref head in
  while !paddr <> 0 && !n < max_chain do
    t.chain.(!n) <- !paddr;
    incr n;
    paddr :=
      if Phys.valid ~paddr:!paddr ~len:desc_size then begin
        Phys.read ~paddr:(!paddr + 32) scratch ~off:0 ~len:8;
        u64_at 0
      end
      else 0
  done;
  t.chain_len <- !n

(* Latency model: the first request of a chain pays the full per-op
   device latency; each chained descriptor adds only the smaller
   per-descriptor cost. The per-byte (bandwidth) part is paid in full
   either way — batching amortises overheads, not the media. *)
let chain_latency t =
  let c = Sim.Cost.c () in
  let bpc = Float.max 0.001 c.Sim.Profile.blk_dev_bpc in
  let total = ref 0 in
  for i = 0 to t.chain_len - 1 do
    let len = try Phys.read_u32 (t.chain.(i) + 4) with Invalid_argument _ -> 0 in
    let base =
      if i = 0 then Sim.Time.of_us c.Sim.Profile.blk_us_per_op
      else Sim.Time.of_us c.Sim.Profile.blk_us_per_desc
    in
    total := !total + base + int_of_float (float_of_int len /. bpc)
  done;
  !total

let pump t =
  if t.dead then begin
    Queue.clear t.queue;
    t.busy <- false
  end
  else if Queue.is_empty t.queue then t.busy <- false
  else begin
    t.busy <- true;
    load_chain t (Queue.take t.queue);
    (* Injected service-time jitter: up to ~2 ms of extra latency, enough
       to trip a first-attempt bio deadline but not a retried one.
       Charged once per chain, like the real head-of-line blocking it
       models. *)
    let jitter = Sim.Fault.delay_cycles "blk.delay" ~max_cycles:(Sim.Time.of_us 2000.) in
    ignore (Sim.Events.schedule_after (chain_latency t + jitter) t.service)
  end

(* Every descriptor of the chain runs; one completion interrupt covers
   them all. *)
let service t =
  let any = ref false in
  for i = 0 to t.chain_len - 1 do
    if execute_one t t.chain.(i) then any := true
  done;
  if !any then raise_coalesced t;
  pump t

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
      irq_source = Irq_chip.Device dev_id;
      capacity = capacity_sectors;
      disk;
      cache = Itbl.create 256;
      spares = [];
      queue = Queue.create ();
      chain = Array.make max_chain 0;
      chain_len = 0;
      service = ignore;
      irq_taken = ignore;
      busy = false;
      dead = false;
      completed = 0;
      irq_pending = false;
      irq_missed = false;
    }
  in
  t.service <- (fun () -> service t);
  t.irq_taken <- (fun () -> irq_taken t);
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
