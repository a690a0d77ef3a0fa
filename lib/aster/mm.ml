let page_size = Ostd.Vmspace.page_size

let brk_start = 0x0800_0000
let mmap_base = 0x2000_0000
let stack_top = 0x7000_0000

type region = { start : int; mutable npages : int }

type t = {
  vm : Ostd.Vmspace.t;
  mutable brk : int;
  mutable mmap_next : int;
  mutable regions : region list;
  mutable destroyed : bool;
}

let create () =
  {
    vm = Ostd.Vmspace.create ();
    brk = brk_start;
    mmap_next = mmap_base;
    regions = [ { start = stack_top - (64 * page_size); npages = 64 } ];
    destroyed = false;
  }

let vmspace t = t.vm

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    Ostd.Vmspace.destroy t.vm
  end

let fork t =
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.fork_base;
  {
    vm = Ostd.Vmspace.fork_clone t.vm;
    brk = t.brk;
    mmap_next = t.mmap_next;
    regions = List.map (fun r -> { r with start = r.start }) t.regions;
    destroyed = false;
  }

let page_covered t vaddr =
  let in_region r = vaddr >= r.start && vaddr < r.start + (r.npages * page_size) in
  List.exists in_region t.regions || (vaddr >= brk_start && vaddr < t.brk)

let do_brk t newbrk =
  if newbrk = 0 then t.brk
  else begin
    if newbrk < t.brk then begin
      (* Shrink: release whole pages above the new break. *)
      let keep = (newbrk + page_size - 1) / page_size in
      let had = (t.brk + page_size - 1) / page_size in
      if had > keep then
        Ostd.Vmspace.unmap t.vm ~vaddr:(keep * page_size) ~pages:(had - keep)
    end;
    t.brk <- max brk_start newbrk;
    t.brk
  end

let do_mmap t ~len =
  if len <= 0 then Error Errno.einval
  else begin
    let npages = (len + page_size - 1) / page_size in
    let addr = t.mmap_next in
    t.mmap_next <- t.mmap_next + (npages * page_size) + page_size (* guard gap *);
    t.regions <- { start = addr; npages } :: t.regions;
    (* VMA setup; pages appear on first touch. *)
    Sim.Cost.charge (1500 + (npages * (Sim.Cost.c ()).Sim.Profile.mmap_per_page));
    Ok addr
  end

let do_munmap t ~addr ~len =
  if addr mod page_size <> 0 || len <= 0 then Error Errno.einval
  else begin
    let npages = (len + page_size - 1) / page_size in
    Ostd.Vmspace.unmap t.vm ~vaddr:addr ~pages:npages;
    t.regions <-
      List.filter_map
        (fun r ->
          if r.start >= addr && r.start + (r.npages * page_size) <= addr + len then None
          else Some r)
        t.regions;
    Ok ()
  end

let do_mprotect t ~addr ~len ~writable =
  if addr mod page_size <> 0 || len <= 0 then Error Errno.einval
  else begin
    let npages = (len + page_size - 1) / page_size in
    let perms = if writable then Ostd.Vmspace.rw else Ostd.Vmspace.ro in
    Ostd.Vmspace.protect t.vm ~vaddr:addr ~pages:npages perms;
    Ok ()
  end

let handle_fault t ~vaddr ~write =
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.fault_entry;
  if t.destroyed then false
  else if Ostd.Vmspace.is_mapped t.vm ~vaddr then
    if write && Ostd.Vmspace.resolve_cow t.vm ~vaddr then true
    else
      (* Mapped but faulting: write to a read-only page. *)
      false
  else if page_covered t vaddr then begin
    (* Demand zero-fill. *)
    let page_base = vaddr / page_size * page_size in
    Ostd.Vmspace.map t.vm ~vaddr:page_base (Ostd.Frame.alloc ()) Ostd.Vmspace.rw;
    true
  end
  else false

(* A page a user store reaches: mapped writable (copy-on-write
   included), or unmapped inside a region that demand paging fills. *)
let rec writable_from t ~vaddr ~len n =
  if n >= len then len
  else
    let va = vaddr + n in
    if
      Ostd.Vmspace.is_writable t.vm ~vaddr:va
      || ((not (Ostd.Vmspace.is_mapped t.vm ~vaddr:va)) && page_covered t va)
    then writable_from t ~vaddr ~len (n + page_size - (va mod page_size))
    else n

let writable_prefix t ~vaddr ~len = if t.destroyed then 0 else writable_from t ~vaddr ~len 0

let mapped_pages t = Ostd.Vmspace.mapped_pages t.vm
