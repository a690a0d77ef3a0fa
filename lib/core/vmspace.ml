type perms = { read : bool; write : bool; exec : bool }

let rw = { read = true; write = true; exec = false }
let ro = { read = true; write = false; exec = false }
let rx = { read = true; write = false; exec = true }

type fault = { vaddr : int; write : bool }

let page_size = Machine.Phys.page_size

(* Each mapped page owns a clone of its frame handle; [fpage] selects the
   page within a multi-page frame. *)
type entry = { frame : Frame.t; fpage : int; mutable perms : perms; mutable cow : bool }

type t = {
  vid : int;
  table : (int, entry) Hashtbl.t; (* user page number -> entry *)
  mutable pt_frames : Frame.Typed.t list; (* frames modelling the page table *)
  mutable destroyed : bool;
}

let () =
  List.iter
    (fun (u, n) -> Probe.declare ~submodule:"vmspace" ~unsafe_:u n)
    [
      (true, "vmspace.pte_set");
      (true, "vmspace.pte_clear");
      (true, "vmspace.pt_alloc");
      (false, "vmspace.fault");
      (false, "vmspace.cow_split");
    ]

let next_id = ref 0

let create () =
  incr next_id;
  { vid = !next_id; table = Hashtbl.create 64; pt_frames = []; destroyed = false }

let id t = t.vid

let alive t op = if t.destroyed then Panic.panicf "VmSpace.%s: space already destroyed" op

(* One page-table frame per 512 entries, allocated as typed memory so the
   TCB's sensitive pages are accounted for. *)
let grow_page_table t =
  let needed = 1 + (Hashtbl.length t.table / 512) in
  while List.length t.pt_frames < needed do
    Probe.hit "vmspace.pt_alloc";
    t.pt_frames <- Frame.Typed.alloc () :: t.pt_frames
  done

let page_of vaddr = vaddr / page_size

let map t ~vaddr frame perms =
  alive t "map";
  if vaddr mod page_size <> 0 then Panic.panic "VmSpace.map: unaligned vaddr";
  let npages = Frame.pages frame in
  let first = page_of vaddr in
  for i = 0 to npages - 1 do
    if Hashtbl.mem t.table (first + i) then
      Panic.panicf "VmSpace.map: page %#x already mapped" ((first + i) * page_size)
  done;
  Sim.Cost.charge (npages * (Sim.Cost.c ()).Sim.Profile.map_page);
  for i = 0 to npages - 1 do
    Probe.hit "vmspace.pte_set";
    Hashtbl.add t.table (first + i) { frame = Frame.clone frame; fpage = i; perms; cow = false }
  done;
  Frame.drop frame;
  grow_page_table t

let unmap t ~vaddr ~pages =
  alive t "unmap";
  if vaddr mod page_size <> 0 then Panic.panic "VmSpace.unmap: unaligned vaddr";
  let first = page_of vaddr in
  for i = first to first + pages - 1 do
    match Hashtbl.find_opt t.table i with
    | Some e ->
      Probe.hit "vmspace.pte_clear";
      (* Only present PTEs cost a clear + TLB shootdown. *)
      Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.unmap_page;
      Frame.drop e.frame;
      Hashtbl.remove t.table i
    | None -> ()
  done

let protect t ~vaddr ~pages perms =
  alive t "protect";
  let first = page_of vaddr in
  for i = first to first + pages - 1 do
    match Hashtbl.find_opt t.table i with
    | Some e -> e.perms <- perms
    | None -> ()
  done

let is_mapped t ~vaddr = Hashtbl.mem t.table (page_of vaddr)

(* Mapped with write permission: a user store succeeds at once, or
   after [resolve_cow] splits a copy-on-write page. *)
let is_writable t ~vaddr =
  match Hashtbl.find t.table (page_of vaddr) with
  | e -> e.perms.write
  | exception Not_found -> false

let frame_at t ~vaddr =
  Option.map (fun e -> e.frame) (Hashtbl.find_opt t.table (page_of vaddr))

let mapped_pages t = Hashtbl.length t.table

let destroy t =
  if not t.destroyed then begin
    Hashtbl.iter (fun _ e -> Frame.drop e.frame) t.table;
    Hashtbl.reset t.table;
    List.iter Frame.Typed.drop t.pt_frames;
    t.pt_frames <- [];
    t.destroyed <- true
  end

(* Walk a user range page by page; [f entry page_off chunk buf_off] moves
   the data. Returns the first fault. *)
let walk t ~vaddr ~len ~write f =
  let result = ref (Ok ()) in
  let pos = ref vaddr and moved = ref 0 in
  while !result = Ok () && !moved < len do
    let pg = page_of !pos in
    let off = !pos mod page_size in
    let chunk = min (len - !moved) (page_size - off) in
    (match Hashtbl.find_opt t.table pg with
    | None ->
      Probe.hit "vmspace.fault";
      result := Error { vaddr = !pos; write }
    | Some e ->
      if (not write) && not e.perms.read then begin
        Probe.hit "vmspace.fault";
        result := Error { vaddr = !pos; write }
      end
      else if write && ((not e.perms.write) || e.cow) then begin
        Probe.hit "vmspace.fault";
        result := Error { vaddr = !pos; write }
      end
      else begin
        f e off chunk !moved;
        pos := !pos + chunk;
        moved := !moved + chunk
      end)
  done;
  !result

let copy_out t ~vaddr ~buf ~pos ~len =
  alive t "copy_out";
  Sim.Cost.charge_user_copy len;
  walk t ~vaddr ~len ~write:false (fun e off chunk moved ->
      Untyped.read_bytes e.frame
        ~off:((e.fpage * page_size) + off)
        ~buf ~pos:(pos + moved) ~len:chunk)

let copy_in t ~vaddr ~buf ~pos ~len =
  alive t "copy_in";
  Sim.Cost.charge_user_copy len;
  walk t ~vaddr ~len ~write:true (fun e off chunk moved ->
      Untyped.write_bytes e.frame
        ~off:((e.fpage * page_size) + off)
        ~buf ~pos:(pos + moved) ~len:chunk)

let user_access t ~vaddr ~len ~write =
  alive t "user_access";
  walk t ~vaddr ~len ~write (fun _ _ _ _ -> ())

let fork_clone t =
  alive t "fork_clone";
  let child = create () in
  let per_page = (Sim.Cost.c ()).Sim.Profile.fork_per_page in
  Hashtbl.iter
    (fun pg e ->
      Sim.Cost.charge per_page;
      let share_cow = e.perms.write || e.cow in
      if share_cow then e.cow <- true;
      Hashtbl.add child.table pg
        { frame = Frame.clone e.frame; fpage = e.fpage; perms = e.perms; cow = share_cow })
    t.table;
  grow_page_table child;
  child

let resolve_cow t ~vaddr =
  alive t "resolve_cow";
  match Hashtbl.find_opt t.table (page_of vaddr) with
  | Some e when e.cow && e.perms.write ->
    Probe.hit "vmspace.cow_split";
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.map_page;
    if Frame.refcount ~paddr:(Frame.paddr e.frame + (e.fpage * page_size)) = 1 then
      (* Sole owner: writable again without copying. *)
      e.cow <- false
    else begin
      let fresh = Frame.alloc () in
      Untyped.copy ~src:e.frame ~src_off:(e.fpage * page_size) ~dst:fresh ~dst_off:0
        ~len:page_size;
      Sim.Cost.charge_memcpy page_size;
      Frame.drop e.frame;
      Hashtbl.replace t.table (page_of vaddr)
        { frame = fresh; fpage = 0; perms = e.perms; cow = false }
    end;
    true
  | Some _ | None -> false
