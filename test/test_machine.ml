let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let setup ?(profile = Sim.Profile.linux) () =
  Sim.Profile.set profile;
  Machine.Board.reset ~frames:1024 ()

let test_phys_roundtrip () =
  setup ();
  let data = Bytes.of_string "hello physical memory" in
  Machine.Phys.write ~paddr:5000 data ~off:0 ~len:(Bytes.length data);
  let out = Bytes.create (Bytes.length data) in
  Machine.Phys.read ~paddr:5000 out ~off:0 ~len:(Bytes.length out);
  check "roundtrip" true (Bytes.equal data out)

let test_phys_cross_page () =
  setup ();
  let len = 10000 in
  let data = Bytes.init len (fun i -> Char.chr (i mod 256)) in
  Machine.Phys.write ~paddr:4090 data ~off:0 ~len;
  let out = Bytes.create len in
  Machine.Phys.read ~paddr:4090 out ~off:0 ~len;
  check "cross-page roundtrip" true (Bytes.equal data out)

let test_phys_zero_fill () =
  setup ();
  check_int "fresh ram reads zero" 0 (Machine.Phys.read_u8 123456)

let test_phys_out_of_range () =
  setup ();
  Alcotest.check_raises "oob"
    (Invalid_argument
       (Printf.sprintf "Phys: access [%#x, %#x) outside memory" (1024 * 4096) ((1024 * 4096) + 4)))
    (fun () -> ignore (Machine.Phys.read_u32 (1024 * 4096)))

let test_phys_scalars () =
  setup ();
  Machine.Phys.write_u32 100 0xCAFEBABE;
  check_int "u32" 0xCAFEBABE (Machine.Phys.read_u32 100);
  Machine.Phys.write_u64 200 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Machine.Phys.read_u64 200)

(* Copies with overlapping source and destination, in both directions,
   inside one frame and across a frame boundary, against [Bytes.blit]
   (memmove) on a snapshot of the same bytes. *)
let overlap_cases =
  [ (100, 164, 1000); (164, 100, 1000); (4000, 4090, 3000); (4090, 4000, 3000); (10, 10, 64) ]

let test_phys_copy_overlap () =
  List.iter
    (fun (src, dst, len) ->
      setup ();
      let span = 3 * 4096 in
      let init = Bytes.init span (fun i -> Char.chr ((i * 7) land 0xff)) in
      Machine.Phys.write ~paddr:0 init ~off:0 ~len:span;
      let want = Bytes.copy init in
      Bytes.blit want src want dst len;
      Machine.Phys.copy ~src ~dst ~len;
      let got = Bytes.create span in
      Machine.Phys.read ~paddr:0 got ~off:0 ~len:span;
      check (Printf.sprintf "memmove %d -> %d (%d bytes)" src dst len) true (Bytes.equal want got))
    overlap_cases

let test_untyped_copy_overlap () =
  List.iter
    (fun (src_off, dst_off, len) ->
      Sim.Profile.set Sim.Profile.asterinas;
      Kernmiri.Corpus.fresh_boot ();
      let f = Ostd.Frame.alloc ~pages:2 () in
      let span = 2 * 4096 in
      let init = Bytes.init span (fun i -> Char.chr ((i * 13) land 0xff)) in
      Ostd.Untyped.write_bytes f ~off:0 ~buf:init ~pos:0 ~len:span;
      let want = Bytes.copy init in
      Bytes.blit want src_off want dst_off len;
      let before = Sim.Time.now () in
      Ostd.Untyped.copy ~src:f ~src_off ~dst:f ~dst_off ~len;
      check "the copy is charged" true (Sim.Time.now () > before);
      let got = Bytes.create span in
      Ostd.Untyped.read_bytes f ~off:0 ~buf:got ~pos:0 ~len:span;
      check
        (Printf.sprintf "memmove %d -> %d (%d bytes)" src_off dst_off len)
        true (Bytes.equal want got))
    overlap_cases

let test_mmio_dispatch () =
  setup ();
  let written = ref 0L in
  Machine.Mmio.register
    {
      base = 0x9000_0000;
      size = 0x10;
      name = "testdev";
      sensitive = false;
      read = (fun ~off ~len:_ -> Int64.of_int (off * 2));
      write = (fun ~off:_ ~len:_ v -> written := v);
    };
  Alcotest.(check int64) "read" 8L (Machine.Mmio.read ~addr:0x9000_0004 ~len:4);
  Machine.Mmio.write ~addr:0x9000_0000 ~len:4 77L;
  Alcotest.(check int64) "write" 77L !written;
  Alcotest.(check int64) "unclaimed reads ones" (-1L) (Machine.Mmio.read ~addr:0x1 ~len:4)

let test_mmio_overlap_rejected () =
  setup ();
  let mk base =
    {
      Machine.Mmio.base;
      size = 0x100;
      name = "a";
      sensitive = false;
      read = (fun ~off:_ ~len:_ -> 0L);
      write = (fun ~off:_ ~len:_ _ -> ());
    }
  in
  Machine.Mmio.register (mk 0x9000_0000);
  check "overlap raises" true
    (try
       Machine.Mmio.register (mk 0x9000_0080);
       false
     with Invalid_argument _ -> true)

let test_board_sensitive_labels () =
  setup ();
  (match Machine.Mmio.find Machine.Board.lapic_base with
  | Some r -> check "lapic sensitive" true r.Machine.Mmio.sensitive
  | None -> Alcotest.fail "lapic missing");
  match Machine.Pio.find 0x20 with
  | Some r -> check "pic sensitive" true r.Machine.Pio.sensitive
  | None -> Alcotest.fail "pic missing"

let test_irq_remapping () =
  setup ();
  let got = ref [] in
  Machine.Irq_chip.set_dispatcher (fun v -> got := v :: !got);
  Machine.Irq_chip.enable_remapping ();
  Machine.Irq_chip.remap_allow ~dev:1 ~vector:40;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 1) ~vector:40;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 2) ~vector:40;
  Machine.Irq_chip.raise_irq Machine.Irq_chip.Core ~vector:32;
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "delivered" [ 40; 32 ] (List.rev !got);
  check_int "spoofs" 1 (Machine.Irq_chip.blocked_spoofs ())

let test_iommu_fault_and_grant () =
  setup ();
  Machine.Iommu.set_enabled true;
  (match Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:16 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unmapped access passed");
  Machine.Iommu.map ~dev:3 ~paddr:0x8000 ~len:4096;
  (match Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:16 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Machine.Iommu.unmap ~dev:3 ~paddr:0x8000 ~len:4096;
  match Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:16 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "access after unmap passed"

let test_iotlb_hit_miss () =
  setup ();
  Machine.Iommu.set_enabled true;
  Machine.Iommu.map ~dev:3 ~paddr:0x8000 ~len:4096;
  let m0 = Machine.Iommu.misses () in
  ignore (Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:8);
  check_int "first access misses" (m0 + 1) (Machine.Iommu.misses ());
  let h0 = Machine.Iommu.hits () in
  ignore (Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:8);
  check_int "second access hits" (h0 + 1) (Machine.Iommu.hits ())

let test_wire_delivery () =
  setup ();
  let a, b = Machine.Wire.create_pair ~latency_us:5.0 ~bytes_per_cycle:2. in
  let got = ref [] in
  Machine.Wire.on_receive b (fun pkt -> got := Bytes.to_string pkt :: !got);
  Machine.Wire.send a (Bytes.of_string "one");
  Machine.Wire.send a (Bytes.of_string "two");
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list string)) "in order" [ "one"; "two" ] (List.rev !got);
  check "latency applied" true (Sim.Time.now () >= Sim.Time.of_us 5.0)

let run_all_events () =
  while Sim.Events.run_next () do
    ()
  done

(* Drive the block device exactly as a driver would, but with the IOMMU
   off and raw physical writes: descriptor at 0x40000, data at 0x41000. *)
let test_virtio_blk_write_read () =
  setup ();
  let blk =
    Machine.Virtio_blk.create ~capacity_sectors:1024 ~mmio_base:Machine.Board.pci_hole_base
      ~dev_id:1 ~vector:40 ()
  in
  let irqs = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr irqs);
  let desc = 0x40000 and data = 0x41000 in
  let payload = Bytes.make 512 'Z' in
  Machine.Phys.write ~paddr:data payload ~off:0 ~len:512;
  (* write request: type=1 len=512 sector=10 *)
  Machine.Phys.write_u32 desc 1;
  Machine.Phys.write_u32 (desc + 4) 512;
  Machine.Phys.write_u64 (desc + 8) 10L;
  Machine.Phys.write_u64 (desc + 16) (Int64.of_int data);
  Machine.Phys.write_u32 (desc + 24) 0xff;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc);
  run_all_events ();
  check_int "status ok" 0 (Machine.Phys.read_u32 (desc + 24));
  check_int "irq raised" 1 !irqs;
  check "backing updated" true
    (Bytes.equal payload (Machine.Virtio_blk.read_backing blk ~sector:10 ~len:512));
  (* read it back into a different buffer *)
  let data2 = 0x42000 in
  Machine.Phys.write_u32 desc 0;
  Machine.Phys.write_u64 (desc + 16) (Int64.of_int data2);
  Machine.Phys.write_u32 (desc + 24) 0xff;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc);
  run_all_events ();
  let out = Bytes.create 512 in
  Machine.Phys.read ~paddr:data2 out ~off:0 ~len:512;
  check "read returns written data" true (Bytes.equal payload out);
  check_int "two requests completed" 2 (Machine.Virtio_blk.requests_completed blk)

let test_virtio_blk_iommu_blocks_dma () =
  setup ();
  Machine.Iommu.set_enabled true;
  let blk =
    Machine.Virtio_blk.create ~capacity_sectors:64 ~mmio_base:Machine.Board.pci_hole_base
      ~dev_id:1 ~vector:40 ()
  in
  let desc = 0x40000 in
  Machine.Phys.write_u32 desc 0;
  Machine.Phys.write_u32 (desc + 4) 512;
  Machine.Phys.write_u64 (desc + 8) 0L;
  Machine.Phys.write_u64 (desc + 16) 0x41000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc);
  run_all_events ();
  check_int "request dropped" 0 (Machine.Virtio_blk.requests_completed blk);
  check "fault recorded" true (Sim.Stats.get "iommu.fault" > 0)

(* A per-sector reference for the virtio-blk persistence model: a sparse
   image and a volatile cache of 512-byte sectors. A flush persists the
   cache lowest sector first, a FUA write persists each of its sectors,
   and in front of every sector made durable sits a crash boundary; the
   power fails at boundary [cut]. *)
module Ref_blk = struct
  type t = {
    image : (int, Bytes.t) Hashtbl.t;
    cache : (int, Bytes.t) Hashtbl.t;
    mutable persists : int;
    mutable dead : bool;
    cut : int;
  }

  let create ~cut =
    { image = Hashtbl.create 64; cache = Hashtbl.create 64; persists = 0; dead = false; cut }

  let zero = Bytes.make 512 '\000'

  let observe t s =
    match Hashtbl.find_opt t.cache s with
    | Some b -> b
    | None -> ( match Hashtbl.find_opt t.image s with Some b -> b | None -> zero)

  let boundary t =
    if t.persists = t.cut then begin
      t.dead <- true;
      Hashtbl.reset t.cache;
      false
    end
    else begin
      t.persists <- t.persists + 1;
      true
    end

  let write t s data = if not t.dead then Hashtbl.replace t.cache s data

  let fua t s data =
    if (not t.dead) && boundary t then begin
      Hashtbl.remove t.cache s;
      Hashtbl.replace t.image s data
    end

  let flush t =
    if not t.dead then begin
      let dirty = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) t.cache []) in
      let persist s =
        boundary t
        && begin
          Hashtbl.replace t.image s (Hashtbl.find t.cache s);
          true
        end
      in
      if List.for_all persist dirty then Hashtbl.reset t.cache
    end
end

type blk_op = W of int * Bytes.t | Fua of int * Bytes.t | Flush | R of int * int

(* Random requests, plus whole 4 KiB pages: a page-aligned write of one
   or two pages (which a flush hands to the image whole), and a page
   rewritten after the flush that moved it into the image (which takes
   the page that flush displaced as its buffer). *)
let blk_ops rng ~capacity ~count =
  let data nsect = Bytes.init (nsect * 512) (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.concat
    (List.init count (fun _ ->
         let sector = Random.State.int rng capacity in
         let nsect = 1 + Random.State.int rng (min 16 (capacity - sector)) in
         let page = 8 * Random.State.int rng (capacity / 8) in
         let pages = min (1 + Random.State.int rng 2) ((capacity - page) / 8) in
         match Random.State.int rng 26 with
         | n when n < 9 -> [ W (sector, data nsect) ]
         | n when n < 12 -> [ Fua (sector, data nsect) ]
         | n when n < 15 -> [ Flush ]
         | n when n < 20 -> [ R (sector, nsect) ]
         | n when n < 23 -> [ W (page, data (8 * pages)) ]
         | _ -> [ W (page, data 8); Flush; W (page, data 8); R (page, 8) ]))

let ref_apply r ops =
  List.iter
    (fun op ->
      match op with
      | W (s, d) ->
        for i = 0 to (Bytes.length d / 512) - 1 do
          Ref_blk.write r (s + i) (Bytes.sub d (i * 512) 512)
        done
      | Fua (s, d) ->
        for i = 0 to (Bytes.length d / 512) - 1 do
          Ref_blk.fua r (s + i) (Bytes.sub d (i * 512) 512)
        done
      | Flush -> Ref_blk.flush r
      | R _ -> ())
    ops

let test_virtio_blk_differential () =
  let capacity = 64 and desc = 0x40000 and data = 0x41000 and rdata = 0x44000 in
  let blk_create ?disk () =
    Machine.Virtio_blk.create ?disk ~capacity_sectors:capacity
      ~mmio_base:Machine.Board.pci_hole_base ~dev_id:1 ~vector:40 ()
  in
  let submit ~typ ~sector ~len ~paddr =
    Machine.Phys.write_u32 desc typ;
    Machine.Phys.write_u32 (desc + 4) len;
    Machine.Phys.write_u64 (desc + 8) (Int64.of_int sector);
    Machine.Phys.write_u64 (desc + 16) (Int64.of_int paddr);
    Machine.Phys.write_u64 (desc + 32) 0L;
    Machine.Phys.write_u32 (desc + 24) 0xff;
    Machine.Mmio.write
      ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
      ~len:8 (Int64.of_int desc);
    run_all_events ()
  in
  for seed = 1 to 40 do
    let ops = blk_ops (Random.State.make [| seed |]) ~capacity ~count:60 in
    let uncut = Ref_blk.create ~cut:(-1) in
    ref_apply uncut ops;
    (* Every eighth run arms the trigger one past the last boundary: no
       power cut, so the full flush path is compared too. *)
    let cut =
      if seed mod 8 = 0 then uncut.Ref_blk.persists
      else Random.State.int (Random.State.make [| seed; 1 |]) uncut.Ref_blk.persists
    in
    let r = Ref_blk.create ~cut in
    setup ();
    let dev = blk_create () in
    Sim.Fault.set_trigger "blk.power_cut" ~after:cut;
    let name what = Printf.sprintf "seed %d, cut at %d: %s" seed cut what in
    let observed t = Bytes.concat Bytes.empty (List.init capacity (Ref_blk.observe t)) in
    List.iter
      (fun op ->
        match op with
        | W (s, d) | Fua (s, d) ->
          Machine.Phys.write ~paddr:data d ~off:0 ~len:(Bytes.length d);
          submit ~typ:(match op with W _ -> 1 | _ -> 3) ~sector:s ~len:(Bytes.length d) ~paddr:data;
          ref_apply r [ op ]
        | Flush ->
          submit ~typ:2 ~sector:0 ~len:0 ~paddr:0;
          ref_apply r [ op ];
          (* A flush, or the power cut, leaves the cache empty: what the
             device reads back now is its image alone. *)
          let image = Ref_blk.create ~cut:(-1) in
          Hashtbl.iter (Hashtbl.replace image.Ref_blk.image) r.Ref_blk.image;
          check (name "image after a flush") true
            (Bytes.equal (observed image)
               (Machine.Virtio_blk.read_backing dev ~sector:0 ~len:(capacity * 512)))
        | R (s, n) ->
          submit ~typ:0 ~sector:s ~len:(n * 512) ~paddr:rdata;
          if not r.Ref_blk.dead then begin
            let got = Bytes.create (n * 512) in
            Machine.Phys.read ~paddr:rdata got ~off:0 ~len:(n * 512);
            let want = Bytes.concat Bytes.empty (List.init n (fun i -> Ref_blk.observe r (s + i))) in
            check (name (Printf.sprintf "read of %d sectors at %d" n s)) true (Bytes.equal want got)
          end)
      ops;
    check_int (name "persist_count") r.Ref_blk.persists (Machine.Virtio_blk.persist_count dev);
    check (name "dead") r.Ref_blk.dead (Machine.Virtio_blk.is_dead dev);
    check (name "read_backing")
      true
      (Bytes.equal (observed r) (Machine.Virtio_blk.read_backing dev ~sector:0 ~len:(capacity * 512)));
    (* Only the image survives: boot a fresh device around a clone. *)
    let disk = Machine.Virtio_blk.clone_disk (Machine.Virtio_blk.disk_image dev) in
    setup ();
    let survivor = blk_create ~disk () in
    let image = Ref_blk.create ~cut:(-1) in
    Hashtbl.iter (Hashtbl.replace image.Ref_blk.image) r.Ref_blk.image;
    check (name "surviving image")
      true
      (Bytes.equal (observed image)
         (Machine.Virtio_blk.read_backing survivor ~sector:0 ~len:(capacity * 512)));
    check_int (name "survivor persist_count") r.Ref_blk.persists
      (Machine.Virtio_blk.persist_count survivor)
  done

let test_virtio_net_tx_rx () =
  setup ();
  let guest, host = Machine.Wire.create_pair ~latency_us:2.0 ~bytes_per_cycle:4. in
  let net =
    Machine.Virtio_net.create ~mmio_base:(Machine.Board.pci_hole_base + 0x1000) ~dev_id:2
      ~vector:41 ~endpoint:guest
  in
  let host_got = ref [] in
  Machine.Wire.on_receive host (fun pkt -> host_got := Bytes.to_string pkt :: !host_got);
  (* TX: descriptor 0x40000, payload "ping" at 0x41000 *)
  Machine.Phys.write ~paddr:0x41000 (Bytes.of_string "ping") ~off:0 ~len:4;
  Machine.Phys.write_u32 0x40000 4;
  Machine.Phys.write_u64 (0x40000 + 8) 0x41000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + 0x1000 + Machine.Virtio_net.reg_queue_tx)
    ~len:8 0x40000L;
  run_all_events ();
  Alcotest.(check (list string)) "host received" [ "ping" ] !host_got;
  check_int "tx count" 1 (Machine.Virtio_net.tx_count net);
  (* RX: post a buffer, then host sends *)
  Machine.Phys.write_u32 0x50000 2048;
  Machine.Phys.write_u32 (0x50000 + 4) 0xFFFF;
  Machine.Phys.write_u64 (0x50000 + 8) 0x51000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + 0x1000 + Machine.Virtio_net.reg_queue_rx)
    ~len:8 0x50000L;
  Machine.Wire.send host (Bytes.of_string "pong!");
  run_all_events ();
  check_int "used length" 5 (Machine.Phys.read_u32 (0x50000 + 4));
  let out = Bytes.create 5 in
  Machine.Phys.read ~paddr:0x51000 out ~off:0 ~len:5;
  Alcotest.(check string) "payload" "pong!" (Bytes.to_string out);
  (* "pong!" is no well-formed packet; the verdict gets its own word and
     leaves the posted data address intact. *)
  check_int "checksum verdict" Machine.Virtio_net.csum_verdict_bad
    (Machine.Phys.read_u32 (0x50000 + Machine.Virtio_net.rx_desc_csum));
  Alcotest.(check int64) "data address intact" 0x51000L (Machine.Phys.read_u64 (0x50000 + 8))

let test_virtio_net_backlog () =
  setup ();
  let guest, host = Machine.Wire.create_pair ~latency_us:1.0 ~bytes_per_cycle:4. in
  ignore
    (Machine.Virtio_net.create ~mmio_base:(Machine.Board.pci_hole_base + 0x1000) ~dev_id:2
       ~vector:41 ~endpoint:guest);
  (* Packet arrives before any buffer is posted: held in backlog. *)
  Machine.Wire.send host (Bytes.of_string "early");
  run_all_events ();
  Machine.Phys.write_u32 0x50000 2048;
  Machine.Phys.write_u64 (0x50000 + 8) 0x51000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + 0x1000 + Machine.Virtio_net.reg_queue_rx)
    ~len:8 0x50000L;
  run_all_events ();
  check_int "delivered from backlog" 5 (Machine.Phys.read_u32 (0x50000 + 4))

(* --- Fault-injection plane at the device models --- *)

let submit_blk_write ~desc ~data ~sector =
  Machine.Phys.write_u32 desc 1;
  Machine.Phys.write_u32 (desc + 4) 512;
  Machine.Phys.write_u64 (desc + 8) (Int64.of_int sector);
  Machine.Phys.write_u64 (desc + 16) (Int64.of_int data);
  Machine.Phys.write_u32 (desc + 24) 0xff;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc)

let test_fault_blk_error_status () =
  setup ();
  ignore
    (Machine.Virtio_blk.create ~capacity_sectors:64 ~mmio_base:Machine.Board.pci_hole_base
       ~dev_id:1 ~vector:40 ());
  let irqs = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr irqs);
  Sim.Fault.configure ~seed:1L [ ("blk.io_error", 1.0) ];
  submit_blk_write ~desc:0x40000 ~data:0x41000 ~sector:3;
  run_all_events ();
  check_int "error status written" 1 (Machine.Phys.read_u32 (0x40000 + 24));
  check_int "completion irq still raised" 1 !irqs;
  check "injection recorded" true (Sim.Fault.total_injected () > 0);
  Sim.Fault.disable ()

let test_fault_blk_dropped_completion () =
  setup ();
  ignore
    (Machine.Virtio_blk.create ~capacity_sectors:64 ~mmio_base:Machine.Board.pci_hole_base
       ~dev_id:1 ~vector:40 ());
  let irqs = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr irqs);
  Sim.Fault.configure ~seed:1L [ ("blk.drop", 1.0) ];
  submit_blk_write ~desc:0x40000 ~data:0x41000 ~sector:3;
  run_all_events ();
  check_int "status stays pending" 0xff (Machine.Phys.read_u32 (0x40000 + 24));
  check_int "no completion irq" 0 !irqs;
  check "drop counted" true (Sim.Stats.get "virtio_blk.dropped_completion" > 0);
  Sim.Fault.disable ()

let test_fault_iommu_injected () =
  setup ();
  Machine.Iommu.set_enabled true;
  Machine.Iommu.map ~dev:1 ~paddr:0x40000 ~len:4096;
  check "mapped access passes clean" true (Machine.Iommu.access ~dev:1 ~paddr:0x40000 ~len:64 = Ok ());
  Sim.Fault.configure ~seed:1L [ ("iommu.fault", 1.0) ];
  (match Machine.Iommu.access ~dev:1 ~paddr:0x40000 ~len:64 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "injected translation fault passed");
  check "fault counted" true (Sim.Stats.get "iommu.injected_fault" > 0);
  Sim.Fault.disable ()

let test_fault_spurious_vector () =
  setup ();
  let got = ref [] in
  Machine.Irq_chip.set_dispatcher (fun v -> got := v :: !got);
  Sim.Fault.configure ~seed:1L [ ("irq.spurious", 1.0) ];
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 1) ~vector:40;
  run_all_events ();
  check "real vector delivered" true (List.mem 40 !got);
  check "spurious vector injected" true (List.mem Machine.Irq_chip.spurious_vector !got);
  Sim.Fault.disable ()

let test_fault_irq_storm_burst () =
  setup ();
  let got = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr got);
  Sim.Fault.configure ~seed:1L [ ("irq.storm", 1.0) ];
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 1) ~vector:40;
  run_all_events ();
  check "burst multiplied the delivery" true (!got > 1);
  Sim.Fault.disable ()

let test_fault_determinism_and_isolation () =
  (* Same seed, same sequence of rolls; and unconfigured sites consume
     no randomness, so arming new sites later cannot shift old ones. *)
  setup ();
  Sim.Fault.configure ~seed:99L [ ("blk.io_error", 0.5) ];
  let a = List.init 64 (fun _ -> Sim.Fault.roll "blk.io_error") in
  let a' = List.init 64 (fun _ -> Sim.Fault.roll "net.drop") in
  Sim.Fault.configure ~seed:99L [ ("blk.io_error", 0.5) ];
  let b = List.init 64 (fun _ -> Sim.Fault.roll "blk.io_error") in
  check "same seed, same rolls" true (a = b);
  check "unconfigured sites never fire" true (List.for_all not a');
  Sim.Fault.disable ()

let prop_phys_roundtrip =
  QCheck.Test.make ~name:"phys_random_roundtrips" ~count:200
    QCheck.(pair (int_range 0 100000) (string_of_size (QCheck.Gen.int_range 1 9000)))
    (fun (paddr, s) ->
      setup ();
      let len = String.length s in
      let data = Bytes.of_string s in
      Machine.Phys.write ~paddr data ~off:0 ~len;
      let out = Bytes.create len in
      Machine.Phys.read ~paddr out ~off:0 ~len;
      Bytes.equal data out)

let prop_iommu_pages =
  QCheck.Test.make ~name:"iommu_grant_covers_exact_pages" ~count:100
    QCheck.(pair (int_range 0 200) (int_range 1 16384))
    (fun (pageno, len) ->
      setup ();
      Machine.Iommu.set_enabled true;
      let paddr = pageno * 4096 in
      Machine.Iommu.map ~dev:1 ~paddr ~len;
      let ok_inside = Machine.Iommu.access ~dev:1 ~paddr ~len = Ok () in
      let after = paddr + (((len + 4095) / 4096) * 4096) in
      let fails_after =
        match Machine.Iommu.access ~dev:1 ~paddr:after ~len:1 with
        | Error _ -> true
        | Ok () -> false
      in
      ok_inside && fails_after)

let () =
  Alcotest.run "machine"
    [
      ( "phys",
        [
          Alcotest.test_case "roundtrip" `Quick test_phys_roundtrip;
          Alcotest.test_case "cross_page" `Quick test_phys_cross_page;
          Alcotest.test_case "zero_fill" `Quick test_phys_zero_fill;
          Alcotest.test_case "out_of_range" `Quick test_phys_out_of_range;
          Alcotest.test_case "scalars" `Quick test_phys_scalars;
          Alcotest.test_case "copy_overlap" `Quick test_phys_copy_overlap;
          Alcotest.test_case "untyped_copy_overlap" `Quick test_untyped_copy_overlap;
        ] );
      ( "mmio",
        [
          Alcotest.test_case "dispatch" `Quick test_mmio_dispatch;
          Alcotest.test_case "overlap" `Quick test_mmio_overlap_rejected;
          Alcotest.test_case "sensitive_labels" `Quick test_board_sensitive_labels;
        ] );
      ( "irq_iommu",
        [
          Alcotest.test_case "remapping" `Quick test_irq_remapping;
          Alcotest.test_case "fault_and_grant" `Quick test_iommu_fault_and_grant;
          Alcotest.test_case "iotlb" `Quick test_iotlb_hit_miss;
        ] );
      ( "devices",
        [
          Alcotest.test_case "wire" `Quick test_wire_delivery;
          Alcotest.test_case "virtio_blk_rw" `Quick test_virtio_blk_write_read;
          Alcotest.test_case "virtio_blk_iommu" `Quick test_virtio_blk_iommu_blocks_dma;
          Alcotest.test_case "virtio_blk_differential" `Quick test_virtio_blk_differential;
          Alcotest.test_case "virtio_net_tx_rx" `Quick test_virtio_net_tx_rx;
          Alcotest.test_case "virtio_net_backlog" `Quick test_virtio_net_backlog;
        ] );
      ( "fault_plane",
        [
          Alcotest.test_case "blk_error_status" `Quick test_fault_blk_error_status;
          Alcotest.test_case "blk_dropped_completion" `Quick test_fault_blk_dropped_completion;
          Alcotest.test_case "iommu_injected" `Quick test_fault_iommu_injected;
          Alcotest.test_case "spurious_vector" `Quick test_fault_spurious_vector;
          Alcotest.test_case "irq_storm_burst" `Quick test_fault_irq_storm_burst;
          Alcotest.test_case "determinism" `Quick test_fault_determinism_and_isolation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_phys_roundtrip; prop_iommu_pages ] );
    ]
