let stack_pages = 4

let max_frame_bytes = Machine.Phys.page_size

type t = { segment : Frame.Typed.t; mutable used : int; mutable live : bool }

let () =
  List.iter
    (fun (u, n) -> Probe.declare ~submodule:"kstack" ~unsafe_:u n)
    [ (true, "kstack.alloc"); (false, "kstack.guard_check"); (false, "kstack.free") ]

let create () =
  Probe.hit "kstack.alloc";
  (* Stack pages plus the guard page below; the span is typed memory,
     which no untyped accessor accepts. *)
  let segment = Frame.Typed.alloc ~pages:(stack_pages + 1) () in
  (* Map the stack pages and zero the top frame (Table 8 row 5 total). *)
  Sim.Cost.charge 2750;
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.guard_page);
  { segment; used = 0; live = true }

let destroy t =
  if t.live then begin
    Probe.hit "kstack.free";
    t.live <- false;
    Frame.Typed.drop t.segment
  end

let depth t = t.used

let limit = stack_pages * Machine.Phys.page_size

let with_frame t ~bytes f =
  Probe.hit "kstack.guard_check";
  if bytes > max_frame_bytes then
    Panic.panicf "Kstack: function frame of %d bytes exceeds the guard page" bytes;
  t.used <- t.used + bytes;
  if t.used > limit then Panic.panic "Kstack: stack overflow caught by guard page";
  Fun.protect ~finally:(fun () -> t.used <- t.used - bytes) f
