let () =
  List.iter
    (fun (u, n) -> Probe.declare ~submodule:"dma" ~unsafe_:u n)
    [
      (true, "dma.iommu_map");
      (true, "dma.iommu_unmap");
      (false, "dma.pool_recycle");
    ]

let stream_args (f : Sim.Trace.fields) = Printf.sprintf "dev=%d paddr=0x%x len=%d" f.a f.b f.c

let tp_map = Sim.Trace.point Sim.Trace.Dma "map" [| "dev"; "paddr"; "len" |] stream_args

let tp_unmap = Sim.Trace.point Sim.Trace.Dma "unmap" [| "dev"; "paddr"; "len" |] stream_args

module Stream = struct
  type t = { fr : Frame.t; dev : int; mutable live : bool }

  let map frame ~dev =
    Probe.hit "dma.iommu_map";
    (* Without an IOMMU a streaming map is just bookkeeping; the domain
       update and its cost exist only when translation is on. *)
    if Machine.Iommu.enabled () then begin
      Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.dma_map;
      Machine.Iommu.map ~dev ~paddr:(Frame.paddr frame) ~len:(Frame.size frame)
    end
    else Sim.Cost.charge 120;
    Sim.Trace.emit3 tp_map dev (Frame.paddr frame) (Frame.size frame);
    { fr = frame; dev; live = true }

  let alive t op = if not t.live then Panic.panicf "Dma.Stream.%s: unmapped stream" op

  let paddr t =
    alive t "paddr";
    Frame.paddr t.fr

  let size t = Frame.size t.fr

  let frame t =
    alive t "frame";
    t.fr

  (* Device-visible placement of bytes sourced from externally-pinned
     frames (zero-copy TX): the simulator must materialise what the
     device's scatter-gather would present, but no CPU copy happens, so
     no per-byte cycles are charged. The caller charges the honest costs
     instead: {!charge_zc_map} for the payload mapping and the header
     memcpy it still performs. *)
  let fill t ~off ~buf ~pos ~len =
    alive t "fill";
    if off < 0 || len < 0 || off + len > Frame.size t.fr then
      Panic.panicf "Dma.Stream.fill: range [%d, %d) outside buffer of %d bytes" off (off + len)
        (Frame.size t.fr);
    Machine.Phys.write ~paddr:(Frame.paddr t.fr + off) buf ~off:pos ~len

  let sync_to_device t ~off:_ ~len =
    alive t "sync_to_device";
    Sim.Cost.charge (len / 64)

  let sync_from_device t ~off:_ ~len =
    alive t "sync_from_device";
    Sim.Cost.charge (len / 64)

  let unmap t =
    alive t "unmap";
    Probe.hit "dma.iommu_unmap";
    if Machine.Iommu.enabled () then begin
      Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.dma_unmap;
      Machine.Iommu.unmap ~dev:t.dev ~paddr:(Frame.paddr t.fr) ~len:(Frame.size t.fr)
    end
    else Sim.Cost.charge 100;
    Sim.Trace.emit3 tp_unmap t.dev (Frame.paddr t.fr) (Frame.size t.fr);
    t.live <- false;
    Frame.drop t.fr
end

(* Zero-copy TX charges: a pinned payload is not copied into the DMA
   buffer, but its pages must still be made visible to the device — a
   per-packet domain update (and later invalidation) with the IOMMU on,
   cheap bookkeeping without. Mirrors exactly what {!Stream.map} and
   {!Stream.unmap} charge for their own mappings. *)
let charge_zc_map () =
  if Machine.Iommu.enabled () then Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.dma_map
  else Sim.Cost.charge 120

let charge_zc_unmap () =
  if Machine.Iommu.enabled () then Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.dma_unmap
  else Sim.Cost.charge 100

module Coherent = struct
  type t = { stream : Stream.t }

  let alloc ~pages ~dev =
    let fr = Frame.alloc ~pages () in
    { stream = Stream.map fr ~dev }

  let paddr t = Stream.paddr t.stream

  let frame t = Stream.frame t.stream

  let free t = Stream.unmap t.stream
end

module Pool = struct
  (* LIFO recycling keeps the working set of buffers small and their
     IOTLB entries hot -- the point of the pooling optimisation. *)
  type t = { mutable free : Stream.t list; mutable total : int; mutable destroyed : bool }

  let create ~dev ~buf_pages ~count =
    let free =
      List.init count (fun _ -> Stream.map (Frame.alloc ~pages:buf_pages ()) ~dev)
    in
    { free; total = count; destroyed = false }

  let buffers t = t.total

  let alloc t =
    if t.destroyed then Panic.panic "Dma.Pool.alloc: destroyed pool";
    match t.free with
    | [] -> None
    | s :: rest ->
      t.free <- rest;
      Some s

  let release t s =
    Probe.hit "dma.pool_recycle";
    if t.destroyed then Stream.unmap s else t.free <- s :: t.free

  let destroy t =
    t.destroyed <- true;
    List.iter Stream.unmap t.free;
    t.free <- [];
    t.total <- 0
end
