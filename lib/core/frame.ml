type state = Unused | Typed | Untyped

type meta = ..

type fmeta = { mutable refcount : int; mutable st : state; mutable meta : meta option }

(* Both kinds' handle: the interface makes {!Typed.t} a distinct
   abstract type over it, so they share claim, refcounts and release. *)
type t = { first : int; npages : int; mutable live : bool }

let page_size = Machine.Phys.page_size

(* The static per-frame metadata array, allocated at early boot. *)
let metadata : fmeta array ref = ref [||]

let handles = ref 0

let () =
  List.iter
    (fun (u, n) -> Probe.declare ~submodule:"frame" ~unsafe_:u n)
    [
      (true, "frame.metadata_init");
      (true, "frame.cas_claim");
      (true, "frame.refcount_inc");
      (true, "frame.refcount_dec");
      (true, "frame.release_to_allocator");
      (false, "frame.alloc");
      (false, "frame.from_unused_reject");
      (false, "frame.set_meta");
    ]

let init_metadata ~reserved_pages =
  Probe.hit "frame.metadata_init";
  let n = Machine.Phys.nframes () in
  metadata := Array.init n (fun _ -> { refcount = 0; st = Unused; meta = None });
  handles := 0;
  for i = 0 to min reserved_pages n - 1 do
    !metadata.(i).st <- Typed;
    !metadata.(i).refcount <- 1
  done

let total_frames () = Array.length !metadata

let fmeta_of idx =
  if idx < 0 || idx >= Array.length !metadata then
    Panic.panicf "Frame: frame index %d outside physical memory" idx;
  !metadata.(idx)

let refcount ~paddr = (fmeta_of (paddr / page_size)).refcount

let state_of ~paddr = (fmeta_of (paddr / page_size)).st

(* Inv. 1: claim a span only if every frame is currently unused. The
   check-and-set on each frame's metadata entry models the CAS in the
   paper's from_unused (Fig. 9a shows why ordering there matters; the
   KernMiri case study exercises a deliberately broken variant). [st]
   is the state the claimed frames take: [Untyped] or [Typed]. *)
let claim st ~paddr ~pages =
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.ownership_check);
  if paddr mod page_size <> 0 then Error "from_unused: unaligned physical address"
  else if pages <= 0 then Error "from_unused: empty span"
  else begin
    let first = paddr / page_size in
    if first + pages > Array.length !metadata then Error "from_unused: beyond physical memory"
    else begin
      let all_unused = ref true in
      for i = first to first + pages - 1 do
        if (fmeta_of i).st <> Unused then all_unused := false
      done;
      if not !all_unused then begin
        Probe.hit "frame.from_unused_reject";
        Error "from_unused: span overlaps in-use memory (Inv. 1)"
      end
      else begin
        Probe.hit "frame.cas_claim";
        for i = first to first + pages - 1 do
          let m = fmeta_of i in
          m.st <- st;
          m.refcount <- 1;
          m.meta <- None
        done;
        incr handles;
        Ok { first; npages = pages; live = true }
      end
    end
  end

let from_unused ~paddr ~pages = claim Untyped ~paddr ~pages

(* Transient failures (fault plane) and momentary exhaustion get a
   bounded retry before we declare real OOM; a recovered attempt is the
   graceful-degradation path, a persistent one still panics. *)
let alloc_max_attempts = 4

let alloc_as st pages =
  Probe.hit "frame.alloc";
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.alloc_frame;
  let (module A) = Falloc.injected () in
  let attempt () = if Sim.Fault.roll "alloc.fail" then None else A.alloc ~pages in
  let rec go n =
    match attempt () with
    | Some paddr -> (
      if n > 0 then Sim.Stats.incr "degrade.recovered.alloc";
      match claim st ~paddr ~pages with
      | Ok f -> f
      | Error e -> Panic.panicf "Frame.alloc: injected allocator violated Inv. 1: %s" e)
    | None when n + 1 < alloc_max_attempts ->
      Sim.Stats.incr "degrade.retried.alloc";
      go (n + 1)
    | None -> Panic.panicf "Frame.alloc: out of memory (%d pages requested)" pages
  in
  go 0

let alloc ?(pages = 1) () = alloc_as Untyped pages

let ensure_live t op = if not t.live then Panic.panicf "Frame.%s: use of dropped handle" op

let clone t =
  ensure_live t "clone";
  Probe.hit "frame.refcount_inc";
  for i = t.first to t.first + t.npages - 1 do
    let m = fmeta_of i in
    m.refcount <- m.refcount + 1
  done;
  incr handles;
  { t with live = true }

let drop t =
  ensure_live t "drop";
  Probe.hit "frame.refcount_dec";
  t.live <- false;
  decr handles;
  let all_free = ref true in
  for i = t.first to t.first + t.npages - 1 do
    let m = fmeta_of i in
    if m.refcount <= 0 then Panic.panic "Frame.drop: refcount underflow";
    m.refcount <- m.refcount - 1;
    if m.refcount = 0 then begin
      m.st <- Unused;
      m.meta <- None
    end
    else all_free := false
  done;
  if !all_free then begin
    Probe.hit "frame.release_to_allocator";
    let (module A) = Falloc.injected () in
    A.dealloc ~paddr:(t.first * page_size) ~pages:t.npages
  end

let paddr t =
  ensure_live t "paddr";
  t.first * page_size

(* Device-perspective read: what a DMA engine scatter-gathering this
   frame would see. No CPU cycles are charged — the point of a zero-copy
   path is exactly that the processor never touches the bytes; the
   honest costs (mapping, wire serialization) are charged where the DMA
   is set up and where the frames travel. *)
let peek t ~off ~buf ~pos ~len =
  ensure_live t "peek";
  if off < 0 || len < 0 || off + len > t.npages * page_size then
    Panic.panicf "Frame.peek: range [%d, %d) outside frame of %d bytes" off (off + len)
      (t.npages * page_size);
  Machine.Phys.read ~paddr:((t.first * page_size) + off) buf ~off:pos ~len

let pages t = t.npages

let size t = t.npages * page_size

let is_live t = t.live

let set_meta t ~page m =
  ensure_live t "set_meta";
  Probe.hit "frame.set_meta";
  if page < 0 || page >= t.npages then Panic.panic "Frame.set_meta: page index out of span";
  (fmeta_of (t.first + page)).meta <- Some m

let get_meta t ~page =
  ensure_live t "get_meta";
  if page < 0 || page >= t.npages then Panic.panic "Frame.get_meta: page index out of span";
  (fmeta_of (t.first + page)).meta

let live_handles () = !handles

module Typed = struct
  type nonrec t = t

  let alloc ?(pages = 1) () = alloc_as Typed pages

  let drop = drop

  let paddr = paddr

  let size = size
end
