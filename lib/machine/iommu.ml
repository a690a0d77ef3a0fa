let page_size = Phys.page_size

let enabled_flag = ref false

(* Device domain: set of mapped page numbers. *)
let domains : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8

(* IOTLB: (dev, page) -> generation, evicted in FIFO order by a bounded
   queue. Capacity is small enough that streaming DMA with dynamic
   mappings thrashes it, as in the paper. *)
let iotlb_capacity = 512

let iotlb : (int * int, unit) Hashtbl.t = Hashtbl.create 64

let iotlb_queue : (int * int) Queue.t = Queue.create ()

let hit_count = ref 0

let miss_count = ref 0

let reset () =
  enabled_flag := false;
  Hashtbl.reset domains;
  Hashtbl.reset iotlb;
  Queue.clear iotlb_queue;
  hit_count := 0;
  miss_count := 0

let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

let domain dev =
  match Hashtbl.find_opt domains dev with
  | Some d -> d
  | None ->
    let d = Hashtbl.create 64 in
    Hashtbl.add domains dev d;
    d

let pages_of ~paddr ~len =
  if len <= 0 then []
  else begin
    let first = paddr / page_size and last = (paddr + len - 1) / page_size in
    List.init (last - first + 1) (fun i -> first + i)
  end

let map ~dev ~paddr ~len =
  let d = domain dev in
  List.iter (fun p -> Hashtbl.replace d p ()) (pages_of ~paddr ~len)

let iotlb_invalidate key =
  if Hashtbl.mem iotlb key then Hashtbl.remove iotlb key

let unmap ~dev ~paddr ~len =
  let d = domain dev in
  List.iter
    (fun p ->
      Hashtbl.remove d p;
      iotlb_invalidate (dev, p))
    (pages_of ~paddr ~len)

let mapped_pages ~dev = Hashtbl.length (domain dev)

let iotlb_insert key =
  if not (Hashtbl.mem iotlb key) then begin
    if Queue.length iotlb_queue >= iotlb_capacity then begin
      let victim = Queue.pop iotlb_queue in
      Hashtbl.remove iotlb victim
    end;
    Hashtbl.add iotlb key ();
    Queue.push key iotlb_queue
  end

let page_args (f : Sim.Trace.fields) = Printf.sprintf "dev=%d page=%#x" f.a f.b

let tp_hit = Sim.Trace.point Sim.Trace.Dma "iotlb_hit" [| "dev"; "page" |] page_args

let tp_miss = Sim.Trace.point Sim.Trace.Dma "iotlb_miss" [| "dev"; "page" |] page_args

let tp_fault =
  Sim.Trace.point Sim.Trace.Dma "fault" [| "dev"; "paddr" |] (fun f ->
      Printf.sprintf "dev=%d paddr=%#x injected" f.a f.b)

let translate_page dev page =
  let key = (dev, page) in
  if Hashtbl.mem iotlb key then begin
    incr hit_count;
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.iotlb_hit;
    Sim.Trace.emit2 tp_hit dev page;
    Ok ()
  end
  else begin
    incr miss_count;
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.iotlb_miss;
    Sim.Trace.emit2 tp_miss dev page;
    if Hashtbl.mem (domain dev) page then begin
      iotlb_insert key;
      Ok ()
    end
    else Error (Printf.sprintf "iommu: dev %d faulted on page %#x" dev page)
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
    let rec check = function
      | [] -> Ok ()
      | p :: rest -> (
        match translate_page dev p with
        | Ok () -> check rest
        | Error _ as e ->
          Sim.Stats.incr "iommu.fault";
          e)
    in
    check (pages_of ~paddr ~len)
  end

let hits () = !hit_count

let misses () = !miss_count
