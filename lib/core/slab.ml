let () =
  List.iter
    (fun (u, n) -> Probe.declare ~submodule:"slab" ~unsafe_:u n)
    [
      (true, "slab.carve_pages");
      (true, "slab.slot_to_object");
      (false, "slab.fit_check");
      (false, "slab.active_check");
      (false, "slab.foreign_slot_reject");
    ]

type slab = {
  sid : int;
  segment : Frame.Typed.t;
  ssize : int;
  nslots : int;
  free : int Queue.t;
  taken : bool array;
  mutable active_count : int;
  mutable live : bool;
}

module Heap_slot = struct
  type t = { owner : slab; index : int; mutable in_use : bool }

  let addr t = Frame.Typed.paddr t.owner.segment + (t.index * t.owner.ssize)

  let size t = t.owner.ssize
end

type t = slab

let next_sid = ref 0

let create ~slot_size ~pages =
  if slot_size <= 0 then Panic.panic "Slab.create: slot size must be positive";
  Probe.hit "slab.carve_pages";
  let segment = Frame.Typed.alloc ~pages () in
  let nslots = Frame.Typed.size segment / slot_size in
  if nslots = 0 then Panic.panic "Slab.create: slot larger than the slab";
  incr next_sid;
  let free = Queue.create () in
  for i = 0 to nslots - 1 do
    Queue.push i free
  done;
  {
    sid = !next_sid;
    segment;
    ssize = slot_size;
    nslots;
    free;
    taken = Array.make nslots false;
    active_count = 0;
    live = true;
  }

let slot_size t = t.ssize

let capacity t = t.nslots

let free_slots t = Queue.length t.free

let active t = t.active_count

let alive t op = if not t.live then Panic.panicf "Slab.%s: destroyed slab" op

let alloc t =
  alive t "alloc";
  match Queue.take_opt t.free with
  | None -> None
  | Some index ->
    t.taken.(index) <- true;
    t.active_count <- t.active_count + 1;
    Some { Heap_slot.owner = t; index; in_use = true }

let dealloc t (slot : Heap_slot.t) =
  alive t "dealloc";
  if slot.Heap_slot.owner.sid <> t.sid then begin
    Probe.hit "slab.foreign_slot_reject";
    Panic.panic "Slab.dealloc: slot belongs to a different slab"
  end;
  if not slot.Heap_slot.in_use then Panic.panic "Slab.dealloc: double free";
  slot.Heap_slot.in_use <- false;
  t.taken.(slot.Heap_slot.index) <- false;
  t.active_count <- t.active_count - 1;
  Queue.push slot.Heap_slot.index t.free

let destroy t =
  alive t "destroy";
  Probe.hit "slab.active_check";
  if t.active_count > 0 then
    Panic.panicf "Inv. 9 violated: destroying a slab with %d active slots" t.active_count;
  t.live <- false;
  Frame.Typed.drop t.segment

type 'a boxed = { slot : Heap_slot.t; value : 'a }

let into_box slot ~size ~align v =
  Probe.hit "slab.fit_check";
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.slab_fit_check);
  if size > Heap_slot.size slot then
    Panic.panicf "Inv. 10 violated: object of %d bytes in a %d-byte slot" size
      (Heap_slot.size slot);
  if align <= 0 || Heap_slot.addr slot mod align <> 0 then
    Panic.panicf "Inv. 10 violated: slot at %#x breaks %d-byte alignment" (Heap_slot.addr slot)
      align;
  Probe.hit "slab.slot_to_object";
  { slot; value = v }

let box_value b = b.value

let box_slot b = b.slot

module type GLOBAL_HEAP = sig
  val alloc : size:int -> Heap_slot.t
  val dealloc : Heap_slot.t -> unit
end

let heap : (module GLOBAL_HEAP) option ref = ref None

let inject_heap m =
  match !heap with
  | Some _ -> Panic.panic "Slab.inject_heap: a global heap is already registered"
  | None -> heap := Some m

let reset_heap () = heap := None

let heap_injected () = !heap <> None

let kmalloc ~size v =
  match !heap with
  | None -> Panic.panic "Slab.kmalloc: no global heap injected"
  | Some (module H) ->
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.kmalloc;
    (* Fault plane: a transient heap failure costs a retry (second
       kmalloc charge models the slow path re-entry), then succeeds. *)
    if Sim.Fault.roll "alloc.fail" then begin
      Sim.Stats.incr "degrade.retried.alloc";
      Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.kmalloc;
      Sim.Stats.incr "degrade.recovered.alloc"
    end;
    into_box (H.alloc ~size) ~size ~align:8 v

let kfree b =
  match !heap with
  | None -> Panic.panic "Slab.kfree: no global heap injected"
  | Some (module H) -> H.dealloc b.slot
