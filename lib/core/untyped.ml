let () =
  List.iter
    (fun (u, n) -> Probe.declare ~submodule:"untyped" ~unsafe_:u n)
    [
      (true, "untyped.raw_read");
      (true, "untyped.raw_write");
      (false, "untyped.bounds_check");
    ]

let guard frame ~off ~len op =
  Probe.hit "untyped.bounds_check";
  (* The raw data movement itself (~32 bytes/cycle), plus the boundary
     check when safety checks are on (Table 8 rows 1-2). *)
  Sim.Cost.charge (len / 32);
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.boundary_check);
  if off < 0 || len < 0 || off + len > Frame.size frame then
    Panic.panicf "Untyped.%s: range [%d, %d) outside frame of %d bytes" op off (off + len)
      (Frame.size frame)

let read_bytes frame ~off ~buf ~pos ~len =
  guard frame ~off ~len "read_bytes";
  Probe.hit "untyped.raw_read";
  Machine.Phys.read ~paddr:(Frame.paddr frame + off) buf ~off:pos ~len

let write_bytes frame ~off ~buf ~pos ~len =
  guard frame ~off ~len "write_bytes";
  Probe.hit "untyped.raw_write";
  Machine.Phys.write ~paddr:(Frame.paddr frame + off) buf ~off:pos ~len

let fill frame ~off ~len c =
  guard frame ~off ~len "fill";
  Probe.hit "untyped.raw_write";
  Machine.Phys.fill ~paddr:(Frame.paddr frame + off) ~len c

let read_u8 frame ~off =
  guard frame ~off ~len:1 "read_u8";
  Probe.hit "untyped.raw_read";
  Machine.Phys.read_u8 (Frame.paddr frame + off)

let write_u8 frame ~off v =
  guard frame ~off ~len:1 "write_u8";
  Probe.hit "untyped.raw_write";
  Machine.Phys.write_u8 (Frame.paddr frame + off) v

let read_u32 frame ~off =
  guard frame ~off ~len:4 "read_u32";
  Probe.hit "untyped.raw_read";
  Machine.Phys.read_u32 (Frame.paddr frame + off)

let write_u32 frame ~off v =
  guard frame ~off ~len:4 "write_u32";
  Probe.hit "untyped.raw_write";
  Machine.Phys.write_u32 (Frame.paddr frame + off) v

let read_u64 frame ~off =
  guard frame ~off ~len:8 "read_u64";
  Probe.hit "untyped.raw_read";
  Machine.Phys.read_u64 (Frame.paddr frame + off)

let write_u64 frame ~off v =
  guard frame ~off ~len:8 "write_u64";
  Probe.hit "untyped.raw_write";
  Machine.Phys.write_u64 (Frame.paddr frame + off) v

let copy ~src ~src_off ~dst ~dst_off ~len =
  guard src ~off:src_off ~len "copy";
  guard dst ~off:dst_off ~len "copy";
  Probe.hit "untyped.raw_read";
  Probe.hit "untyped.raw_write";
  Machine.Phys.copy ~src:(Frame.paddr src + src_off) ~dst:(Frame.paddr dst + dst_off) ~len
