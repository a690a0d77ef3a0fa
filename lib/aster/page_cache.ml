let page_size = Machine.Phys.page_size

(* The custom per-frame metadata of the paper's Frame<M>: page-cache
   synchronisation state, attached to the frame itself. *)
type pstate = { mutable dirty : bool; mutable uptodate : bool }

type Ostd.Frame.meta += Page_state of pstate

type t = { frames : (int, Ostd.Frame.t) Hashtbl.t; mutable destroyed : bool }

let create () = { frames = Hashtbl.create 16; destroyed = false }

let alive t = if t.destroyed then Ostd.Panic.panic "Page_cache: use after destroy"

let destroy t =
  if not t.destroyed then begin
    Hashtbl.iter (fun _ f -> Ostd.Frame.drop f) t.frames;
    Hashtbl.reset t.frames;
    t.destroyed <- true
  end

let pages t = Hashtbl.length t.frames

let state_of frame =
  match Ostd.Frame.get_meta frame ~page:0 with
  | Some (Page_state s) -> s
  | _ -> Ostd.Panic.panic "Page_cache: frame without page state"

let frame_for t idx =
  alive t;
  match Hashtbl.find_opt t.frames idx with
  | Some f -> f
  | None ->
    let f = Ostd.Frame.alloc () in
    Ostd.Frame.set_meta f ~page:0 (Page_state { dirty = false; uptodate = true });
    Hashtbl.replace t.frames idx f;
    f

let iter_range pos len f =
  let moved = ref 0 in
  while !moved < len do
    let p = pos + !moved in
    let idx = p / page_size and off = p mod page_size in
    let chunk = min (len - !moved) (page_size - off) in
    f idx off !moved chunk;
    moved := !moved + chunk
  done

let read t ~pos ~buf ~boff ~len =
  alive t;
  Sim.Cost.charge_memcpy len;
  iter_range pos len (fun idx off moved chunk ->
      match Hashtbl.find_opt t.frames idx with
      | Some frame -> Ostd.Untyped.read_bytes frame ~off ~buf ~pos:(boff + moved) ~len:chunk
      | None ->
        (* A hole still costs the memset that materialises its zeroes. *)
        Sim.Cost.charge_zero_fill chunk;
        Bytes.fill buf (boff + moved) chunk '\000')

(* A sendfile view: the cached pages under a byte range, each pinned by
   a cloned handle, one slice per page. Nothing is copied when it is
   made; its bytes are read out of the frames when a segment is staged
   for the device or copied for a retransmit, so a view outlives a
   truncate or an unlink of its file. Holes pay the memset that
   materialises their zeroes now and pin nothing. Slice [i] holds the
   view's bytes [slice_end (i - 1), slice_end i). *)
type view = {
  first : int; (* the first byte's offset in its page *)
  vlen : int;
  slices : Ostd.Frame.t option array; (* [None]: a hole *)
  mutable unpinned : int; (* slices [0, unpinned) are dropped *)
  mutable due : int; (* bytes [0, due) may be unpinned *)
  mutable lent : int; (* plugged segments still to read the view *)
}

let view t ~pos ~len =
  alive t;
  let first = pos mod page_size in
  let slices = Array.make ((first + len + page_size - 1) / page_size) None in
  iter_range pos len (fun idx _ moved chunk ->
      match Hashtbl.find_opt t.frames idx with
      | Some frame ->
        Sim.Stats.incr "net.zc_pin";
        slices.((first + moved) / page_size) <- Some (Ostd.Frame.clone frame)
      | None -> Sim.Cost.charge_zero_fill chunk);
  { first; vlen = len; slices; unpinned = 0; due = 0; lent = 0 }

let view_length v = v.vlen

let pinned v = Array.exists Option.is_some v.slices

(* A device-perspective read, as the DMA engine would see the frames. *)
let view_blit v ~pos ~buf ~boff ~len =
  iter_range (v.first + pos) len (fun i off moved chunk ->
      match v.slices.(i) with
      | Some frame -> Ostd.Frame.peek frame ~off ~buf ~pos:(boff + moved) ~len:chunk
      | None -> Bytes.fill buf (boff + moved) chunk '\000')

let slice_end v i = min v.vlen (((i + 1) * page_size) - v.first)

let settle v =
  if v.lent = 0 then
    while v.unpinned < Array.length v.slices && slice_end v v.unpinned <= v.due do
      (match v.slices.(v.unpinned) with
      | Some frame ->
        Sim.Stats.incr "net.zc_unpin";
        Ostd.Frame.drop frame
      | None -> ());
      v.unpinned <- v.unpinned + 1
    done

let unpin v ~upto =
  if upto > v.due then begin
    v.due <- upto;
    settle v
  end

let lend v = v.lent <- v.lent + 1

let give_back v =
  v.lent <- v.lent - 1;
  settle v

(* How much of [pos, pos + len) fits when at most [room] pages may be
   added: up to the first page past them that is not cached. *)
let fitting t ~pos ~len ~room =
  let pages = if len = 0 then 0 else ((pos + len - 1) / page_size) - (pos / page_size) + 1 in
  if pages <= room then len
  else begin
    let fresh = ref 0 and fits = ref 0 in
    (try
       iter_range pos len (fun idx _ _ chunk ->
           if not (Hashtbl.mem t.frames idx) then begin
             if !fresh = room then raise Exit;
             incr fresh
           end;
           fits := !fits + chunk)
     with Exit -> ());
    !fits
  end

let write t ~pos ~buf ~boff ~len ~room =
  alive t;
  let len = fitting t ~pos ~len ~room in
  Sim.Cost.charge_memcpy len;
  iter_range pos len (fun idx off moved chunk ->
      let fresh = not (Hashtbl.mem t.frames idx) in
      if fresh then Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.fs_new_page;
      let frame = frame_for t idx in
      Ostd.Untyped.write_bytes frame ~off ~buf ~pos:(boff + moved) ~len:chunk;
      (state_of frame).dirty <- true);
  len

let truncate t n =
  alive t;
  let keep = (n + page_size - 1) / page_size in
  let victims = Hashtbl.fold (fun idx f acc -> if idx >= keep then (idx, f) :: acc else acc) t.frames [] in
  (* Dropping a page is not free: each victim pays the removal cost
     (unmap bookkeeping, free-list return). *)
  Sim.Cost.charge_page_drop (List.length victims);
  List.iter
    (fun (idx, f) ->
      Ostd.Frame.drop f;
      Hashtbl.remove t.frames idx)
    victims;
  (* Zero the tail of the last kept page so re-extension reads zeroes. *)
  if n mod page_size <> 0 then
    match Hashtbl.find_opt t.frames (n / page_size) with
    | Some frame ->
      Ostd.Untyped.fill frame ~off:(n mod page_size) ~len:(page_size - (n mod page_size)) '\000'
    | None -> ()

let dirty_pages t =
  Hashtbl.fold (fun _ f acc -> if (state_of f).dirty then acc + 1 else acc) t.frames 0

let clean_all t =
  Hashtbl.fold
    (fun _ f acc ->
      let s = state_of f in
      if s.dirty then begin
        s.dirty <- false;
        acc + 1
      end
      else acc)
    t.frames 0

let page_state t idx =
  match Hashtbl.find_opt t.frames idx with
  | Some f ->
    let s = state_of f in
    Some (s.dirty, s.uptodate)
  | None -> None
