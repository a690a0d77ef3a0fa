let page_size = Phys.page_size

let enabled_flag = ref false

(* A device domain: byte [p] of [pages] holds [mapped_bit] while page
   [p] is mapped into the domain and [cached_bit] while the IOTLB caches
   it, so a translation indexes a page and allocates nothing. [pages]
   grows to the highest page mapped; a page past its end is neither. *)
type domain = { dev : int; mutable pages : Bytes.t }

let mapped_bit = 1
let cached_bit = 2

let domains : (int, domain) Hashtbl.t = Hashtbl.create 8

(* IOTLB: one int key per (device, page), evicted in FIFO order from a
   bounded ring. Capacity is small enough that streaming DMA with
   dynamic mappings thrashes it, as in the paper. An unmap clears the
   page's cached bit but leaves its key in the ring, and an eviction
   clears the bit of whatever its key names now. *)
let iotlb_capacity = 512

let page_bits = 40

let key ~dev page = (dev lsl page_bits) lor page

let ring = Array.make iotlb_capacity 0

let ring_head = ref 0

let ring_len = ref 0

let hit_count = ref 0

let miss_count = ref 0

let reset () =
  enabled_flag := false;
  Hashtbl.reset domains;
  ring_head := 0;
  ring_len := 0;
  hit_count := 0;
  miss_count := 0

let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

let domain dev =
  match Hashtbl.find domains dev with
  | d -> d
  | exception Not_found ->
    let d = { dev; pages = Bytes.empty } in
    Hashtbl.add domains dev d;
    d

let bits d p = if p >= 0 && p < Bytes.length d.pages then Bytes.get_uint8 d.pages p else 0

let set_bits d p v =
  if p >= Bytes.length d.pages then begin
    let grown = Bytes.make (Int.max (p + 1) (2 * Bytes.length d.pages)) '\000' in
    Bytes.blit d.pages 0 grown 0 (Bytes.length d.pages);
    d.pages <- grown
  end;
  Bytes.set_uint8 d.pages p v

(* The pages covering [paddr, paddr + len): none when [len <= 0]. *)
let first_page paddr = paddr / page_size

let last_page ~paddr ~len = if len <= 0 then min_int else (paddr + len - 1) / page_size

(* Physical pages are never negative, so none is mapped. *)
let map ~dev ~paddr ~len =
  let d = domain dev in
  for p = Int.max 0 (first_page paddr) to last_page ~paddr ~len do
    set_bits d p (bits d p lor mapped_bit)
  done

let unmap ~dev ~paddr ~len =
  let d = domain dev in
  for p = Int.max 0 (first_page paddr) to last_page ~paddr ~len do
    if bits d p <> 0 then set_bits d p 0
  done

let iotlb_insert d page =
  if !ring_len >= iotlb_capacity then begin
    let victim = ring.(!ring_head) in
    ring_head := (!ring_head + 1) mod iotlb_capacity;
    decr ring_len;
    let vd = domain (victim lsr page_bits) and vp = victim land ((1 lsl page_bits) - 1) in
    set_bits vd vp (bits vd vp land lnot cached_bit)
  end;
  set_bits d page (bits d page lor cached_bit);
  ring.((!ring_head + !ring_len) mod iotlb_capacity) <- key ~dev:d.dev page;
  incr ring_len

let page_args (f : Sim.Trace.fields) = Printf.sprintf "dev=%d page=%#x" f.a f.b

let tp_hit = Sim.Trace.point Sim.Trace.Dma "iotlb_hit" [| "dev"; "page" |] page_args

let tp_miss = Sim.Trace.point Sim.Trace.Dma "iotlb_miss" [| "dev"; "page" |] page_args

let tp_fault =
  Sim.Trace.point Sim.Trace.Dma "fault" [| "dev"; "paddr" |] (fun f ->
      Printf.sprintf "dev=%d paddr=%#x injected" f.a f.b)

(* Translate one page for domain [d]: [true] on an IOTLB hit or a
   successful walk. *)
let translate_page d page =
  let b = bits d page in
  if b land cached_bit <> 0 then begin
    incr hit_count;
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.iotlb_hit;
    Sim.Trace.emit2 tp_hit d.dev page;
    true
  end
  else begin
    incr miss_count;
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.iotlb_miss;
    Sim.Trace.emit2 tp_miss d.dev page;
    b land mapped_bit <> 0
    && begin
      iotlb_insert d page;
      true
    end
  end

let access ~dev ~paddr ~len =
  if not !enabled_flag then Ok ()
  else if Sim.Fault.roll "iommu.fault" then begin
    (* Injected translation fault: the walk spuriously fails even for a
       mapped page, as after a lost invalidation or a table corruption.
       The device sees the same dropped-DMA behaviour as a real fault. *)
    Sim.Stats.incr "iommu.fault";
    Sim.Stats.incr "iommu.injected_fault";
    Sim.Trace.emit2 tp_fault dev paddr;
    Error (Printf.sprintf "iommu: injected fault for dev %d at %#x" dev paddr)
  end
  else begin
    let d = domain dev and p = ref (first_page paddr) and last = last_page ~paddr ~len in
    while !p <= last && translate_page d !p do
      incr p
    done;
    if !p > last then Ok ()
    else begin
      Sim.Stats.incr "iommu.fault";
      Error (Printf.sprintf "iommu: dev %d faulted on page %#x" dev !p)
    end
  end

let hits () = !hit_count

let misses () = !miss_count
