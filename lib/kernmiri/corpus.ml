open Ostd

type case = { submodule : string; name : string; run : unit -> unit }

let fresh_boot ?(frames = 4096) () =
  Boot.init ~frames ();
  Task.inject_fifo_scheduler ();
  Falloc.inject (Bootstrap_alloc.make ());
  Boot.feed_free_memory ()

let expect_panic f =
  match f () with
  | () -> failwith "expected a kernel panic, but none was raised"
  | exception Panic.Kernel_panic _ -> ()

let check b msg = if not b then failwith msg

let page = Machine.Phys.page_size

(* Each case boots its own machine so KernMiri can interpret them in any
   order, mirroring how the paper runs Miri over OSTD's unit tests. *)
let t submodule name run = { submodule; name; run = (fun () -> fresh_boot (); run ()) }

let frame_cases =
  [
    t "frame" "alloc_starts_with_refcount_one" (fun () ->
        let f = Frame.alloc () in
        check (Frame.refcount ~paddr:(Frame.paddr f) = 1) "refcount after alloc";
        Frame.drop f);
    t "frame" "alloc_claims_untyped_state" (fun () ->
        let f = Frame.alloc () in
        check (Frame.state_of ~paddr:(Frame.paddr f) = Frame.Untyped) "state";
        Frame.drop f);
    t "frame" "alloc_claims_typed_state" (fun () ->
        let f = Frame.Typed.alloc () in
        check (Frame.state_of ~paddr:(Frame.Typed.paddr f) = Frame.Typed) "state";
        Frame.Typed.drop f);
    t "frame" "drop_returns_to_unused" (fun () ->
        let f = Frame.alloc () in
        let pa = Frame.paddr f in
        Frame.drop f;
        check (Frame.state_of ~paddr:pa = Frame.Unused) "state after drop");
    t "frame" "clone_bumps_refcount" (fun () ->
        let f = Frame.alloc () in
        let g = Frame.clone f in
        check (Frame.refcount ~paddr:(Frame.paddr f) = 2) "refcount after clone";
        Frame.drop g;
        check (Frame.refcount ~paddr:(Frame.paddr f) = 1) "refcount after drop";
        Frame.drop f);
    t "frame" "segment_spans_contiguous_pages" (fun () ->
        let s = Frame.alloc ~pages:4 () in
        check (Frame.size s = 4 * page) "segment size";
        check (Frame.refcount ~paddr:(Frame.paddr s + (3 * page)) = 1) "last page claimed";
        Frame.drop s);
    t "frame" "from_unused_rejects_reserved_memory" (fun () ->
        match Frame.from_unused ~paddr:0 ~pages:1 with
        | Ok _ -> failwith "claimed the kernel image"
        | Error _ -> ());
    t "frame" "from_unused_rejects_double_claim" (fun () ->
        let f = Frame.alloc () in
        (match Frame.from_unused ~paddr:(Frame.paddr f) ~pages:1 with
        | Ok _ -> failwith "double claim accepted (Inv. 1)"
        | Error _ -> ());
        Frame.drop f);
    t "frame" "from_unused_rejects_unaligned" (fun () ->
        match Frame.from_unused ~paddr:(page + 8) ~pages:1 with
        | Ok _ -> failwith "unaligned claim accepted"
        | Error _ -> ());
    t "frame" "buggy_allocator_cannot_alias_frames" (fun () ->
        Boot.init ~frames:1024 ();
        Task.inject_fifo_scheduler ();
        Falloc.inject (Bootstrap_alloc.make_buggy_overlapping ());
        let (module A) = Falloc.injected () in
        A.add_free_memory ~paddr:(Boot.reserved_pages * page) ~pages:1;
        let f = Frame.alloc () in
        expect_panic (fun () -> ignore (Frame.alloc ()));
        Frame.drop f);
    t "frame" "double_drop_panics" (fun () ->
        let f = Frame.alloc () in
        Frame.drop f;
        expect_panic (fun () -> Frame.drop f));
    t "frame" "per_frame_metadata_attaches" (fun () ->
        let module M = struct
          type Frame.meta += Dirty of bool
        end in
        let f = Frame.alloc ~pages:2 () in
        Frame.set_meta f ~page:1 (M.Dirty true);
        (match Frame.get_meta f ~page:1 with
        | Some (M.Dirty true) -> ()
        | _ -> failwith "metadata lost");
        check (Frame.get_meta f ~page:0 = None) "page 0 has no metadata";
        Frame.drop f);
    t "frame" "dealloc_recycles_memory" (fun () ->
        let before = ref [] in
        for _ = 1 to 8 do
          before := Frame.alloc () :: !before
        done;
        List.iter Frame.drop !before;
        (* All frames free again: a large allocation must succeed. *)
        let big = Frame.alloc ~pages:64 () in
        Frame.drop big);
  ]

let untyped_cases =
  [
    t "untyped" "write_then_read_roundtrip" (fun () ->
        let f = Frame.alloc () in
        let src = Bytes.of_string "framekernel" in
        Untyped.write_bytes f ~off:100 ~buf:src ~pos:0 ~len:(Bytes.length src);
        let dst = Bytes.create (Bytes.length src) in
        Untyped.read_bytes f ~off:100 ~buf:dst ~pos:0 ~len:(Bytes.length dst);
        check (Bytes.equal src dst) "roundtrip";
        Frame.drop f);
    t "untyped" "u8_u32_u64_accessors" (fun () ->
        let f = Frame.alloc () in
        Untyped.write_u8 f ~off:0 0xAB;
        Untyped.write_u32 f ~off:4 0xDEADBEEF;
        Untyped.write_u64 f ~off:8 0x0123456789ABCDEFL;
        check (Untyped.read_u8 f ~off:0 = 0xAB) "u8";
        check (Untyped.read_u32 f ~off:4 = 0xDEADBEEF) "u32";
        check (Untyped.read_u64 f ~off:8 = 0x0123456789ABCDEFL) "u64";
        Frame.drop f);
    t "untyped" "fill_sets_every_byte" (fun () ->
        let f = Frame.alloc () in
        Untyped.fill f ~off:0 ~len:page 'x';
        check (Untyped.read_u8 f ~off:(page - 1) = Char.code 'x') "last byte";
        Frame.drop f);
    t "untyped" "out_of_bounds_read_panics" (fun () ->
        let f = Frame.alloc () in
        expect_panic (fun () -> ignore (Untyped.read_u32 f ~off:(page - 2)));
        Frame.drop f);
    t "untyped" "out_of_bounds_write_panics" (fun () ->
        let f = Frame.alloc () in
        let b = Bytes.create 16 in
        expect_panic (fun () -> Untyped.write_bytes f ~off:(page - 8) ~buf:b ~pos:0 ~len:16);
        Frame.drop f);
    t "untyped" "negative_offset_panics" (fun () ->
        let f = Frame.alloc () in
        expect_panic (fun () -> ignore (Untyped.read_u8 f ~off:(-1)));
        Frame.drop f);
    t "untyped" "segment_crosses_page_boundary" (fun () ->
        let s = Frame.alloc ~pages:2 () in
        let src = Bytes.make 64 'q' in
        Untyped.write_bytes s ~off:(page - 32) ~buf:src ~pos:0 ~len:64;
        let dst = Bytes.create 64 in
        Untyped.read_bytes s ~off:(page - 32) ~buf:dst ~pos:0 ~len:64;
        check (Bytes.equal src dst) "cross-page roundtrip";
        Frame.drop s);
    t "untyped" "copy_between_frames" (fun () ->
        let a = Frame.alloc () and b = Frame.alloc () in
        Untyped.write_u64 a ~off:16 42L;
        Untyped.copy ~src:a ~src_off:0 ~dst:b ~dst_off:0 ~len:page;
        check (Untyped.read_u64 b ~off:16 = 42L) "copied";
        Frame.drop a;
        Frame.drop b);
    t "untyped" "dropped_handle_is_dead" (fun () ->
        let f = Frame.alloc () in
        Frame.drop f;
        expect_panic (fun () -> ignore (Untyped.read_u8 f ~off:0)));
  ]

let vmspace_cases =
  [
    t "vmspace" "map_and_copy_roundtrip" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
        let src = Bytes.of_string "hello user" in
        (match Vmspace.copy_in vm ~vaddr:0x1000 ~buf:src ~pos:0 ~len:(Bytes.length src) with
        | Ok () -> ()
        | Error _ -> failwith "copy_in faulted");
        let dst = Bytes.create (Bytes.length src) in
        (match Vmspace.copy_out vm ~vaddr:0x1000 ~buf:dst ~pos:0 ~len:(Bytes.length dst) with
        | Ok () -> ()
        | Error _ -> failwith "copy_out faulted");
        check (Bytes.equal src dst) "roundtrip";
        Vmspace.destroy vm);
    t "vmspace" "unmapped_access_faults" (fun () ->
        let vm = Vmspace.create () in
        (match Vmspace.user_access vm ~vaddr:0x5000 ~len:4 ~write:false with
        | Error { Vmspace.vaddr = 0x5000; write = false } -> ()
        | Error _ -> failwith "wrong fault address"
        | Ok () -> failwith "expected a fault");
        Vmspace.destroy vm);
    t "vmspace" "readonly_write_faults" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.ro;
        (match Vmspace.user_access vm ~vaddr:0x1000 ~len:4 ~write:true with
        | Error { Vmspace.write = true; _ } -> ()
        | _ -> failwith "expected a write fault");
        Vmspace.destroy vm);
    t "vmspace" "overlap_mapping_panics" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
        let f = Frame.alloc () in
        expect_panic (fun () -> Vmspace.map vm ~vaddr:0x1000 f Vmspace.rw);
        Frame.drop f;
        Vmspace.destroy vm);
    t "vmspace" "unmap_releases_frames" (fun () ->
        let vm = Vmspace.create () in
        let f = Frame.alloc () in
        let pa = Frame.paddr f in
        Vmspace.map vm ~vaddr:0x1000 f Vmspace.rw;
        Vmspace.unmap vm ~vaddr:0x1000 ~pages:1;
        check (Frame.state_of ~paddr:pa = Frame.Unused) "frame freed";
        Vmspace.destroy vm);
    t "vmspace" "multi_page_segment_maps_contiguously" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x10000 (Frame.alloc ~pages:3 ()) Vmspace.rw;
        check (Vmspace.is_mapped vm ~vaddr:0x10000) "page 0";
        check (Vmspace.is_mapped vm ~vaddr:0x12000) "page 2";
        check (not (Vmspace.is_mapped vm ~vaddr:0x13000)) "page 3 unmapped";
        Vmspace.destroy vm);
    t "vmspace" "fork_clone_shares_and_cows" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
        let data = Bytes.of_string "parent" in
        ignore (Vmspace.copy_in vm ~vaddr:0x1000 ~buf:data ~pos:0 ~len:6);
        let child = Vmspace.fork_clone vm in
        (* Writing in the child must fault (COW), then split. *)
        (match Vmspace.user_access child ~vaddr:0x1000 ~len:1 ~write:true with
        | Error _ -> ()
        | Ok () -> failwith "COW page writable before split");
        check (Vmspace.resolve_cow child ~vaddr:0x1000) "split works";
        let b = Bytes.of_string "child!" in
        (match Vmspace.copy_in child ~vaddr:0x1000 ~buf:b ~pos:0 ~len:6 with
        | Ok () -> ()
        | Error _ -> failwith "post-split write faulted");
        (* Parent still sees its data once its own COW is resolved. *)
        check (Vmspace.resolve_cow vm ~vaddr:0x1000) "parent split";
        let out = Bytes.create 6 in
        ignore (Vmspace.copy_out vm ~vaddr:0x1000 ~buf:out ~pos:0 ~len:6);
        check (Bytes.equal out data) "parent data preserved";
        Vmspace.destroy child;
        Vmspace.destroy vm);
    t "vmspace" "resolve_cow_on_plain_page_is_false" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
        check (not (Vmspace.resolve_cow vm ~vaddr:0x1000)) "no COW to resolve";
        Vmspace.destroy vm);
    t "vmspace" "destroy_frees_everything" (fun () ->
        let vm = Vmspace.create () in
        let f = Frame.alloc () in
        let pa = Frame.paddr f in
        Vmspace.map vm ~vaddr:0x1000 f Vmspace.rw;
        Vmspace.destroy vm;
        check (Frame.state_of ~paddr:pa = Frame.Unused) "mapped frame freed");
    t "vmspace" "protect_changes_permissions" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
        Vmspace.protect vm ~vaddr:0x1000 ~pages:1 Vmspace.ro;
        (match Vmspace.user_access vm ~vaddr:0x1000 ~len:1 ~write:true with
        | Error _ -> ()
        | Ok () -> failwith "write allowed after mprotect");
        Vmspace.destroy vm);
  ]

let dma_cases =
  [
    t "dma" "stream_map_grants_device_access" (fun () ->
        let f = Frame.alloc () in
        let s = Dma.Stream.map f ~dev:7 in
        (match Machine.Iommu.access ~dev:7 ~paddr:(Dma.Stream.paddr s) ~len:64 with
        | Ok () -> ()
        | Error e -> failwith e);
        Dma.Stream.unmap s);
    t "dma" "unmapped_region_faults" (fun () ->
        check (Machine.Iommu.enabled ()) "iommu on under asterinas profile";
        let f = Frame.alloc () in
        (match Machine.Iommu.access ~dev:7 ~paddr:(Frame.paddr f) ~len:8 with
        | Error _ -> ()
        | Ok () -> failwith "device reached unmapped memory");
        Frame.drop f);
    t "dma" "unmap_revokes_access" (fun () ->
        let f = Frame.alloc () in
        let s = Dma.Stream.map f ~dev:7 in
        let pa = Dma.Stream.paddr s in
        Dma.Stream.unmap s;
        (match Machine.Iommu.access ~dev:7 ~paddr:pa ~len:8 with
        | Error _ -> ()
        | Ok () -> failwith "access after unmap"));
    t "dma" "domains_are_per_device" (fun () ->
        let f = Frame.alloc () in
        let s = Dma.Stream.map f ~dev:7 in
        (match Machine.Iommu.access ~dev:8 ~paddr:(Dma.Stream.paddr s) ~len:8 with
        | Error _ -> ()
        | Ok () -> failwith "wrong device granted");
        Dma.Stream.unmap s);
    t "dma" "coherent_alloc_roundtrip" (fun () ->
        let c = Dma.Coherent.alloc ~pages:2 ~dev:3 in
        Untyped.write_u32 (Dma.Coherent.frame c) ~off:0 99;
        check (Untyped.read_u32 (Dma.Coherent.frame c) ~off:0 = 99) "coherent data";
        Dma.Coherent.free c);
    t "dma" "pool_recycles_without_remap" (fun () ->
        let pool = Dma.Pool.create ~dev:3 ~buf_pages:1 ~count:1 in
        let misses_before = Machine.Iommu.misses () in
        (match Dma.Pool.alloc pool with
        | None -> failwith "pool empty"
        | Some s ->
          ignore (Machine.Iommu.access ~dev:3 ~paddr:(Dma.Stream.paddr s) ~len:8);
          Dma.Pool.release pool s;
          (* Second use hits the warm IOTLB entry. *)
          (match Dma.Pool.alloc pool with
          | Some s2 ->
            ignore (Machine.Iommu.access ~dev:3 ~paddr:(Dma.Stream.paddr s2) ~len:8);
            Dma.Pool.release pool s2
          | None -> failwith "pool empty on second alloc"));
        check (Machine.Iommu.misses () <= misses_before + 1) "at most one cold miss";
        Dma.Pool.destroy pool);
    t "dma" "pool_exhaustion_returns_none" (fun () ->
        let pool = Dma.Pool.create ~dev:3 ~buf_pages:1 ~count:1 in
        (match Dma.Pool.alloc pool with
        | Some s ->
          check (Dma.Pool.alloc pool = None) "second alloc must fail";
          Dma.Pool.release pool s
        | None -> failwith "pool empty");
        Dma.Pool.destroy pool);
    t "dma" "iommu_disabled_passes_everything" (fun () ->
        Sim.Profile.set Sim.Profile.asterinas_no_iommu;
        fresh_boot ();
        (match Machine.Iommu.access ~dev:9 ~paddr:0x4000 ~len:8 with
        | Ok () -> ()
        | Error _ -> failwith "disabled IOMMU must not fault");
        Sim.Profile.set Sim.Profile.asterinas);
  ]

let io_cases =
  [
    t "io" "insensitive_window_acquirable" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        match Io_mem.acquire ~base:Machine.Board.pci_hole_base ~size:0x100 with
        | Ok w ->
          check (Io_mem.read_once w ~off:0 ~len:4 = 0x74726976L) "virtio magic";
          check (Io_mem.read_once w ~off:4 ~len:4 = 2L) "device id"
        | Error e -> failwith e);
    t "io" "sensitive_window_rejected" (fun () ->
        match Io_mem.acquire ~base:Machine.Board.lapic_base ~size:16 with
        | Ok _ -> failwith "acquired the local APIC (Inv. 7)"
        | Error _ -> ());
    t "io" "iommu_register_window_rejected" (fun () ->
        match Io_mem.acquire ~base:Machine.Board.iommu_reg_base ~size:16 with
        | Ok _ -> failwith "acquired the IOMMU registers (Inv. 7)"
        | Error _ -> ());
    t "io" "unclaimed_address_rejected" (fun () ->
        match Io_mem.acquire ~base:0x1234_5000 ~size:16 with
        | Ok _ -> failwith "acquired bare bus space"
        | Error _ -> ());
    t "io" "window_overrun_panics" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        match Io_mem.acquire ~base:Machine.Board.pci_hole_base ~size:0x100 with
        | Ok w -> expect_panic (fun () -> ignore (Io_mem.read_once w ~off:0xFE ~len:4))
        | Error e -> failwith e);
    t "io" "pio_serial_acquirable_pic_rejected" (fun () ->
        (match Io_port.acquire ~first:0x3F8 ~count:8 with
        | Ok p -> Io_port.write p ~port:0x3F8 65
        | Error e -> failwith e);
        match Io_port.acquire ~first:0x20 ~count:2 with
        | Ok _ -> failwith "acquired the PIC ports (Inv. 7)"
        | Error _ -> ());
    t "io" "spoofed_interrupt_blocked" (fun () ->
        let line = Irq.alloc () in
        let fired = ref false in
        Irq.set_handler line (fun () -> fired := true);
        Irq.bind_device line ~dev:5;
        (* Device 6 was never granted this vector. *)
        Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 6) ~vector:(Irq.vector line);
        ignore (Sim.Events.run_next ());
        check (not !fired) "spoofed interrupt delivered (Inv. 3)";
        check (Machine.Irq_chip.blocked_spoofs () = 1) "spoof counted";
        Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 5) ~vector:(Irq.vector line);
        ignore (Sim.Events.run_next ());
        check !fired "granted interrupt must deliver");
    t "io" "irq_handler_runs_in_atomic_mode" (fun () ->
        let line = Irq.alloc () in
        let depth = ref 0 in
        Irq.set_handler line (fun () -> depth := Atomic_mode.depth ());
        Machine.Irq_chip.raise_irq Machine.Irq_chip.Core ~vector:(Irq.vector line);
        ignore (Sim.Events.run_next ());
        check (!depth = 1) "atomic mode inside handler");
  ]

let kstack_cases =
  [
    t "kstack" "create_and_destroy" (fun () ->
        let k = Kstack.create () in
        check (Kstack.depth k = 0) "fresh stack empty";
        Kstack.destroy k);
    t "kstack" "frames_accumulate_and_release" (fun () ->
        let k = Kstack.create () in
        Kstack.with_frame k ~bytes:512 (fun () ->
            check (Kstack.depth k = 512) "depth inside";
            Kstack.with_frame k ~bytes:256 (fun () ->
                check (Kstack.depth k = 768) "nested depth"));
        check (Kstack.depth k = 0) "released";
        Kstack.destroy k);
    t "kstack" "guard_page_catches_overflow" (fun () ->
        let k = Kstack.create () in
        let rec recurse n =
          if n > 0 then Kstack.with_frame k ~bytes:4000 (fun () -> recurse (n - 1))
        in
        expect_panic (fun () -> recurse 64);
        Kstack.destroy k);
    t "kstack" "oversized_frame_rejected" (fun () ->
        (* The compile-time stack-usage analysis bound from the paper. *)
        let k = Kstack.create () in
        expect_panic (fun () -> Kstack.with_frame k ~bytes:(page + 1) ignore);
        Kstack.destroy k);
    t "kstack" "stack_memory_is_typed" (fun () ->
        let before = Sim.Stats.get "kernel.panic" in
        ignore before;
        let k = Kstack.create () in
        (* The backing segment is sensitive: no untyped view can exist.
           We verify indirectly: allocating 5 typed pages shows up in
           metadata as Typed at the stack's address... which we cannot
           even name through the API — the strongest statement is that
           creation consumed typed frames, visible via live handles. *)
        check (Frame.live_handles () >= 1) "stack owns a frame handle";
        Kstack.destroy k);
  ]

let slab_cases =
  [
    t "slab" "alloc_until_exhaustion" (fun () ->
        let s = Slab.create ~slot_size:256 ~pages:1 in
        check (Slab.capacity s = 16) "capacity";
        let slots = List.init 16 (fun _ -> Option.get (Slab.alloc s)) in
        check (Slab.alloc s = None) "exhausted";
        List.iter (Slab.dealloc s) slots;
        check (Slab.free_slots s = 16) "all recycled";
        Slab.destroy s);
    t "slab" "into_box_checks_size" (fun () ->
        let s = Slab.create ~slot_size:32 ~pages:1 in
        let slot = Option.get (Slab.alloc s) in
        expect_panic (fun () -> ignore (Slab.into_box slot ~size:64 ~align:8 "too big"));
        Slab.dealloc s slot;
        Slab.destroy s);
    t "slab" "into_box_checks_alignment" (fun () ->
        let s = Slab.create ~slot_size:24 ~pages:1 in
        (* Slot 1 starts at offset 24: aligned to 8 only. *)
        let s0 = Option.get (Slab.alloc s) in
        let s1 = Option.get (Slab.alloc s) in
        expect_panic (fun () -> ignore (Slab.into_box s1 ~size:16 ~align:16 "misaligned"));
        Slab.dealloc s s0;
        Slab.dealloc s s1;
        Slab.destroy s);
    t "slab" "destroy_with_active_slots_panics" (fun () ->
        let s = Slab.create ~slot_size:64 ~pages:1 in
        let slot = Option.get (Slab.alloc s) in
        let _box = Slab.into_box slot ~size:16 ~align:8 () in
        expect_panic (fun () -> Slab.destroy s);
        Slab.dealloc s slot;
        Slab.destroy s);
    t "slab" "foreign_slot_rejected" (fun () ->
        let a = Slab.create ~slot_size:64 ~pages:1 in
        let b = Slab.create ~slot_size:64 ~pages:1 in
        let slot = Option.get (Slab.alloc a) in
        expect_panic (fun () -> Slab.dealloc b slot);
        Slab.dealloc a slot;
        Slab.destroy a;
        Slab.destroy b);
    t "slab" "double_free_rejected" (fun () ->
        let s = Slab.create ~slot_size:64 ~pages:1 in
        let slot = Option.get (Slab.alloc s) in
        Slab.dealloc s slot;
        expect_panic (fun () -> Slab.dealloc s slot);
        Slab.destroy s);
    t "slab" "boxed_value_survives" (fun () ->
        let s = Slab.create ~slot_size:64 ~pages:1 in
        let slot = Option.get (Slab.alloc s) in
        let b = Slab.into_box slot ~size:48 ~align:8 (3, "payload") in
        check (Slab.box_value b = (3, "payload")) "payload";
        Slab.dealloc s (Slab.box_slot b);
        Slab.destroy s);
    t "slab" "destroy_frees_backing_pages" (fun () ->
        let s = Slab.create ~slot_size:128 ~pages:2 in
        let live = Frame.live_handles () in
        Slab.destroy s;
        check (Frame.live_handles () = live - 1) "backing segment dropped");
  ]

let falloc_cases =
  [
    t "falloc" "double_injection_panics" (fun () ->
        expect_panic (fun () -> Falloc.inject (Bootstrap_alloc.make ())));
    t "falloc" "allocation_without_injection_panics" (fun () ->
        Boot.init ~frames:512 ();
        expect_panic (fun () -> ignore (Frame.alloc ())));
    t "falloc" "contiguous_allocation_honoured" (fun () ->
        let s = Frame.alloc ~pages:8 () in
        check (Frame.paddr s mod page = 0) "aligned";
        Untyped.write_u8 s ~off:((8 * page) - 1) 7;
        Frame.drop s);
    t "falloc" "oom_panics" (fun () ->
        Boot.init ~frames:300 ();
        Task.inject_fifo_scheduler ();
        Falloc.inject (Bootstrap_alloc.make ());
        Boot.feed_free_memory ();
        (* 300 - 256 reserved = 44 usable frames. *)
        expect_panic (fun () -> ignore (Frame.alloc ~pages:64 ())));
    t "falloc" "free_list_coalesces" (fun () ->
        let a = Frame.alloc ~pages:4 () in
        let b = Frame.alloc ~pages:4 () in
        Frame.drop a;
        Frame.drop b;
        (* Both spans free and adjacent: an 8-page allocation succeeds. *)
        let c = Frame.alloc ~pages:8 () in
        Frame.drop c);
  ]


(* --- Extended corpus: edge cases and protocol sequences, bringing the
   suite closer to the paper's 134-test corpus. --- *)

let frame_cases_2 =
  [
    t "frame" "clone_chain_counts_each_handle" (fun () ->
        let f = Frame.alloc () in
        let clones = List.init 5 (fun _ -> Frame.clone f) in
        check (Frame.refcount ~paddr:(Frame.paddr f) = 6) "six handles";
        List.iter Frame.drop clones;
        check (Frame.refcount ~paddr:(Frame.paddr f) = 1) "back to one";
        Frame.drop f);
    t "frame" "segment_clone_covers_every_page" (fun () ->
        let s = Frame.alloc ~pages:3 () in
        let c = Frame.clone s in
        for i = 0 to 2 do
          check (Frame.refcount ~paddr:(Frame.paddr s + (i * page)) = 2) "page refcount"
        done;
        Frame.drop c;
        Frame.drop s);
    t "frame" "memory_returns_only_after_last_drop" (fun () ->
        let f = Frame.alloc () in
        let pa = Frame.paddr f in
        let c = Frame.clone f in
        Frame.drop f;
        check (Frame.state_of ~paddr:pa = Frame.Untyped) "still live";
        Frame.drop c;
        check (Frame.state_of ~paddr:pa = Frame.Unused) "released");
    t "frame" "typed_and_untyped_never_share_a_frame" (fun () ->
        let a = Frame.alloc () in
        let b = Frame.Typed.alloc () in
        check (Frame.paddr a <> Frame.Typed.paddr b) "distinct frames";
        Frame.drop a;
        Frame.Typed.drop b);
    t "frame" "from_unused_zero_pages_rejected" (fun () ->
        match Frame.from_unused ~paddr:(Boot.reserved_pages * page) ~pages:0 with
        | Ok _ -> failwith "empty span accepted"
        | Error _ -> ());
    t "frame" "from_unused_beyond_memory_rejected" (fun () ->
        let beyond = Frame.total_frames () * page in
        match Frame.from_unused ~paddr:beyond ~pages:1 with
        | Ok _ -> failwith "out-of-range span accepted"
        | Error _ -> ());
    t "frame" "metadata_cleared_on_release" (fun () ->
        let module M = struct
          type Frame.meta += Tag of int
        end in
        let f = Frame.alloc () in
        let pa = Frame.paddr f in
        Frame.set_meta f ~page:0 (M.Tag 9);
        Frame.drop f;
        let g = Frame.alloc () in
        (* The allocator's LIFO behaviour will typically hand the same
           frame back; its metadata must not leak through. *)
        if Frame.paddr g = pa then check (Frame.get_meta g ~page:0 = None) "meta wiped";
        Frame.drop g);
    t "frame" "meta_page_index_checked" (fun () ->
        let module M = struct
          type Frame.meta += Tag
        end in
        let f = Frame.alloc ~pages:2 () in
        expect_panic (fun () -> Frame.set_meta f ~page:2 M.Tag);
        Frame.drop f);
    t "frame" "clone_of_dropped_handle_panics" (fun () ->
        let f = Frame.alloc () in
        Frame.drop f;
        expect_panic (fun () -> ignore (Frame.clone f)));
    t "frame" "interleaved_alloc_drop_stays_balanced" (fun () ->
        let live0 = Frame.live_handles () in
        let a = Frame.alloc () in
        let b = Frame.Typed.alloc ~pages:2 () in
        Frame.drop a;
        let c = Frame.alloc () in
        Frame.Typed.drop b;
        Frame.drop c;
        check (Frame.live_handles () = live0) "handles balanced");
  ]

let untyped_cases_2 =
  [
    t "untyped" "read_at_exact_end_boundary" (fun () ->
        let f = Frame.alloc () in
        Untyped.write_u8 f ~off:(page - 1) 0x5A;
        check (Untyped.read_u8 f ~off:(page - 1) = 0x5A) "last byte";
        Frame.drop f);
    t "untyped" "u64_at_last_valid_offset" (fun () ->
        let f = Frame.alloc () in
        Untyped.write_u64 f ~off:(page - 8) 77L;
        check (Untyped.read_u64 f ~off:(page - 8) = 77L) "u64 at end";
        expect_panic (fun () -> ignore (Untyped.read_u64 f ~off:(page - 7)));
        Frame.drop f);
    t "untyped" "zero_length_write_is_noop" (fun () ->
        let f = Frame.alloc () in
        Untyped.write_bytes f ~off:0 ~buf:(Bytes.create 0) ~pos:0 ~len:0;
        check (Untyped.read_u8 f ~off:0 = 0) "untouched";
        Frame.drop f);
    t "untyped" "copy_within_same_frame" (fun () ->
        let f = Frame.alloc () in
        Untyped.write_u64 f ~off:0 123L;
        Untyped.copy ~src:f ~src_off:0 ~dst:f ~dst_off:512 ~len:8;
        check (Untyped.read_u64 f ~off:512 = 123L) "copied within frame";
        Frame.drop f);
    t "untyped" "copy_rejects_out_of_range_destination" (fun () ->
        let a = Frame.alloc () and b = Frame.alloc () in
        expect_panic (fun () -> Untyped.copy ~src:a ~src_off:0 ~dst:b ~dst_off:(page - 4) ~len:8);
        Frame.drop a;
        Frame.drop b);
    t "untyped" "fill_partial_range_only" (fun () ->
        let f = Frame.alloc () in
        Untyped.fill f ~off:100 ~len:10 'z';
        check (Untyped.read_u8 f ~off:99 = 0) "before untouched";
        check (Untyped.read_u8 f ~off:100 = Char.code 'z') "first filled";
        check (Untyped.read_u8 f ~off:109 = Char.code 'z') "last filled";
        check (Untyped.read_u8 f ~off:110 = 0) "after untouched";
        Frame.drop f);
    t "untyped" "segment_last_page_accessible" (fun () ->
        let s = Frame.alloc ~pages:4 () in
        Untyped.write_u32 s ~off:((4 * page) - 4) 42;
        check (Untyped.read_u32 s ~off:((4 * page) - 4) = 42) "segment end";
        expect_panic (fun () -> ignore (Untyped.read_u32 s ~off:((4 * page) - 3)));
        Frame.drop s);
    t "untyped" "data_survives_clone_drop" (fun () ->
        let f = Frame.alloc () in
        let c = Frame.clone f in
        Untyped.write_u32 f ~off:8 7;
        Frame.drop f;
        check (Untyped.read_u32 c ~off:8 = 7) "data visible via clone";
        Frame.drop c);
  ]

let vmspace_cases_2 =
  [
    t "vmspace" "copy_spanning_three_pages" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x4000 (Frame.alloc ~pages:3 ()) Vmspace.rw;
        let len = (2 * page) + 100 in
        let src = Bytes.init len (fun i -> Char.chr (i mod 251)) in
        (match Vmspace.copy_in vm ~vaddr:0x4032 ~buf:src ~pos:0 ~len with
        | Ok () -> ()
        | Error _ -> failwith "copy_in failed");
        let dst = Bytes.create len in
        ignore (Vmspace.copy_out vm ~vaddr:0x4032 ~buf:dst ~pos:0 ~len);
        check (Bytes.equal src dst) "cross-page roundtrip";
        Vmspace.destroy vm);
    t "vmspace" "fault_reports_exact_page" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x4000 (Frame.alloc ()) Vmspace.rw;
        (match Vmspace.copy_in vm ~vaddr:0x4F00 ~buf:(Bytes.create 512) ~pos:0 ~len:512 with
        | Error { Vmspace.vaddr; _ } -> check (vaddr = 0x5000) "fault at next page"
        | Ok () -> failwith "expected fault");
        Vmspace.destroy vm);
    t "vmspace" "partial_unmap_keeps_neighbours" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x10000 (Frame.alloc ~pages:3 ()) Vmspace.rw;
        Vmspace.unmap vm ~vaddr:0x11000 ~pages:1;
        check (Vmspace.is_mapped vm ~vaddr:0x10000) "first kept";
        check (not (Vmspace.is_mapped vm ~vaddr:0x11000)) "middle gone";
        check (Vmspace.is_mapped vm ~vaddr:0x12000) "last kept";
        Vmspace.destroy vm);
    t "vmspace" "unmap_of_unmapped_range_is_noop" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.unmap vm ~vaddr:0x40000 ~pages:8;
        Vmspace.destroy vm);
    t "vmspace" "double_destroy_safe_use_after_panics" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.destroy vm;
        Vmspace.destroy vm;
        expect_panic (fun () -> Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw));
    t "vmspace" "cow_chain_grandchild" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
        ignore (Vmspace.copy_in vm ~vaddr:0x1000 ~buf:(Bytes.of_string "gen0") ~pos:0 ~len:4);
        let child = Vmspace.fork_clone vm in
        let grandchild = Vmspace.fork_clone child in
        check (Vmspace.resolve_cow grandchild ~vaddr:0x1000) "grandchild splits";
        ignore (Vmspace.copy_in grandchild ~vaddr:0x1000 ~buf:(Bytes.of_string "gen2") ~pos:0 ~len:4);
        let out = Bytes.create 4 in
        ignore (Vmspace.resolve_cow vm ~vaddr:0x1000);
        ignore (Vmspace.copy_out vm ~vaddr:0x1000 ~buf:out ~pos:0 ~len:4);
        check (Bytes.to_string out = "gen0") "root unchanged";
        Vmspace.destroy grandchild;
        Vmspace.destroy child;
        Vmspace.destroy vm);
    t "vmspace" "readonly_fork_shares_without_cow" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.ro;
        let child = Vmspace.fork_clone vm in
        (match Vmspace.user_access child ~vaddr:0x1000 ~len:4 ~write:false with
        | Ok () -> ()
        | Error _ -> failwith "read-only page must stay readable");
        check (not (Vmspace.resolve_cow child ~vaddr:0x1000)) "no COW on read-only page";
        Vmspace.destroy child;
        Vmspace.destroy vm);
    t "vmspace" "mapped_pages_accounting" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ~pages:2 ()) Vmspace.rw;
        Vmspace.map vm ~vaddr:0x8000 (Frame.alloc ()) Vmspace.rw;
        check (Vmspace.mapped_pages vm = 3) "three pages";
        Vmspace.unmap vm ~vaddr:0x1000 ~pages:2;
        check (Vmspace.mapped_pages vm = 1) "one page left";
        Vmspace.destroy vm);
    t "vmspace" "exec_permission_tracked" (fun () ->
        let vm = Vmspace.create () in
        Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rx;
        (match Vmspace.user_access vm ~vaddr:0x1000 ~len:4 ~write:true with
        | Error _ -> ()
        | Ok () -> failwith "rx page writable");
        Vmspace.destroy vm);
  ]

let dma_cases_2 =
  [
    t "dma" "coherent_multi_page_grant" (fun () ->
        let c = Dma.Coherent.alloc ~pages:4 ~dev:11 in
        (match Machine.Iommu.access ~dev:11 ~paddr:(Dma.Coherent.paddr c + (3 * page)) ~len:8 with
        | Ok () -> ()
        | Error e -> failwith e);
        Dma.Coherent.free c);
    t "dma" "stream_use_after_unmap_panics" (fun () ->
        let s = Dma.Stream.map (Frame.alloc ()) ~dev:3 in
        Dma.Stream.unmap s;
        expect_panic (fun () -> ignore (Dma.Stream.paddr s)));
    t "dma" "sync_requires_live_stream" (fun () ->
        let s = Dma.Stream.map (Frame.alloc ()) ~dev:3 in
        Dma.Stream.sync_to_device s ~off:0 ~len:64;
        Dma.Stream.unmap s;
        expect_panic (fun () -> Dma.Stream.sync_from_device s ~off:0 ~len:64));
    t "dma" "pool_buffers_counted" (fun () ->
        let pool = Dma.Pool.create ~dev:4 ~buf_pages:2 ~count:3 in
        check (Dma.Pool.buffers pool = 3) "pool size";
        Dma.Pool.destroy pool;
        expect_panic (fun () -> ignore (Dma.Pool.alloc pool)));
    t "dma" "pool_lifo_reuses_hot_buffer" (fun () ->
        let pool = Dma.Pool.create ~dev:4 ~buf_pages:1 ~count:3 in
        (match Dma.Pool.alloc pool with
        | None -> failwith "empty"
        | Some s1 ->
          let p1 = Dma.Stream.paddr s1 in
          Dma.Pool.release pool s1;
          (match Dma.Pool.alloc pool with
          | Some s2 ->
            check (Dma.Stream.paddr s2 = p1) "same buffer reused";
            Dma.Pool.release pool s2
          | None -> failwith "empty"));
        Dma.Pool.destroy pool);
    t "dma" "two_devices_isolated_domains" (fun () ->
        let a = Dma.Stream.map (Frame.alloc ()) ~dev:21 in
        let b = Dma.Stream.map (Frame.alloc ()) ~dev:22 in
        check (Machine.Iommu.access ~dev:21 ~paddr:(Dma.Stream.paddr a) ~len:4 = Ok ()) "a ok";
        (match Machine.Iommu.access ~dev:21 ~paddr:(Dma.Stream.paddr b) ~len:4 with
        | Error _ -> ()
        | Ok () -> failwith "cross-domain access");
        Dma.Stream.unmap a;
        Dma.Stream.unmap b);
  ]

let io_cases_2 =
  [
    t "io" "window_subrange_acquirable" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        match Io_mem.acquire ~base:(Machine.Board.pci_hole_base + 0x10) ~size:0x20 with
        | Ok w -> check (Io_mem.size w = 0x20) "subrange size"
        | Error e -> failwith e);
    t "io" "doorbell_checks_bounds" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        match Io_mem.acquire ~base:Machine.Board.pci_hole_base ~size:0x20 with
        | Ok w -> expect_panic (fun () -> Io_mem.doorbell w ~off:0x1C 0L)
        | Error e -> failwith e);
    t "io" "irq_post_hook_runs_outside_atomic" (fun () ->
        let line = Irq.alloc () in
        Irq.set_handler line (fun () -> ());
        let depth_in_hook = ref (-1) in
        Irq.set_post_hook (fun () -> depth_in_hook := Atomic_mode.depth ());
        Machine.Irq_chip.raise_irq Machine.Irq_chip.Core ~vector:(Irq.vector line);
        ignore (Sim.Events.run_next ());
        check (!depth_in_hook = 0) "post hook not atomic");
    t "io" "unbind_revokes_device_vector" (fun () ->
        let line = Irq.alloc () in
        let count = ref 0 in
        Irq.set_handler line (fun () -> incr count);
        Irq.bind_device line ~dev:5;
        Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 5) ~vector:(Irq.vector line);
        ignore (Sim.Events.run_next ());
        Irq.unbind_device line ~dev:5;
        Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 5) ~vector:(Irq.vector line);
        ignore (Sim.Events.run_next ());
        check (!count = 1) "second interrupt blocked after unbind");
    t "io" "claiming_vector_twice_panics" (fun () ->
        ignore (Irq.claim ~vector:99 ());
        expect_panic (fun () -> ignore (Irq.claim ~vector:99 ())));
    t "io" "write_once_reaches_the_device" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        match Io_mem.acquire ~base:(Machine.Board.pci_hole_base + 0x1000) ~size:0x100 with
        | Ok w ->
          (* Writing a register the model ignores must be harmless; the
             access itself goes through the full checked path. *)
          Io_mem.write_once w ~off:0x40 ~len:4 7L;
          check (Io_mem.read_once w ~off:0x04 ~len:4 = 1L) "device id intact"
        | Error e -> failwith e);
    t "io" "write_once_bounds_checked" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        match Io_mem.acquire ~base:Machine.Board.pci_hole_base ~size:0x40 with
        | Ok w -> expect_panic (fun () -> Io_mem.write_once w ~off:0x40 ~len:4 0L)
        | Error e -> failwith e);
  ]

let kstack_cases_2 =
  [
    t "kstack" "frame_released_on_exception" (fun () ->
        let k = Kstack.create () in
        (try Kstack.with_frame k ~bytes:1024 (fun () -> failwith "boom") with
        | Failure _ -> ());
        check (Kstack.depth k = 0) "depth restored after raise";
        Kstack.destroy k);
    t "kstack" "double_destroy_is_idempotent" (fun () ->
        let k = Kstack.create () in
        Kstack.destroy k;
        Kstack.destroy k);
    t "kstack" "exact_limit_is_allowed" (fun () ->
        let k = Kstack.create () in
        let limit = Kstack.stack_pages * page in
        let quarter = limit / 4 in
        Kstack.with_frame k ~bytes:quarter (fun () ->
            Kstack.with_frame k ~bytes:quarter (fun () ->
                Kstack.with_frame k ~bytes:quarter (fun () ->
                    Kstack.with_frame k ~bytes:quarter (fun () ->
                        check (Kstack.depth k = limit) "at the limit"))));
        Kstack.destroy k);
  ]

let slab_cases_2 =
  [
    t "slab" "slots_are_page_dense" (fun () ->
        let s = Slab.create ~slot_size:512 ~pages:2 in
        check (Slab.capacity s = 16) "two pages of 512B slots";
        Slab.destroy s);
    t "slab" "freed_slot_address_is_reused" (fun () ->
        let s = Slab.create ~slot_size:64 ~pages:1 in
        let a = Option.get (Slab.alloc s) in
        let addr = Slab.Heap_slot.addr a in
        Slab.dealloc s a;
        (* Drain until the same address comes back: it must, the slab is
           a closed set of slots. *)
        let found = ref false in
        let taken = ref [] in
        for _ = 1 to Slab.capacity s do
          match Slab.alloc s with
          | Some slot ->
            if Slab.Heap_slot.addr slot = addr then found := true;
            taken := slot :: !taken
          | None -> ()
        done;
        check !found "address recycled";
        List.iter (Slab.dealloc s) !taken;
        Slab.destroy s);
    t "slab" "into_box_exact_fit" (fun () ->
        let s = Slab.create ~slot_size:64 ~pages:1 in
        let slot = Option.get (Slab.alloc s) in
        let b = Slab.into_box slot ~size:64 ~align:8 "exact" in
        check (Slab.box_value b = "exact") "value";
        Slab.dealloc s (Slab.box_slot b);
        Slab.destroy s);
    t "slab" "alignment_of_first_slot_is_page" (fun () ->
        let s = Slab.create ~slot_size:256 ~pages:1 in
        let slot = Option.get (Slab.alloc s) in
        check (Slab.Heap_slot.addr slot mod page = 0) "first slot page-aligned";
        ignore (Slab.into_box slot ~size:256 ~align:256 ());
        Slab.dealloc s slot;
        Slab.destroy s);
    t "slab" "kmalloc_without_heap_panics" (fun () ->
        expect_panic (fun () -> ignore (Slab.kmalloc ~size:16 ())));
    t "slab" "zero_size_slab_rejected" (fun () ->
        expect_panic (fun () -> ignore (Slab.create ~slot_size:0 ~pages:1)));
    t "slab" "oversized_slot_rejected" (fun () ->
        expect_panic (fun () -> ignore (Slab.create ~slot_size:(2 * page) ~pages:0)));
  ]

let falloc_cases_2 =
  [
    t "falloc" "interleaved_sizes_do_not_overlap" (fun () ->
        let spans =
          List.map (fun p -> Frame.alloc ~pages:p ()) [ 1; 3; 2; 5; 1; 4 ]
        in
        let ranges = List.map (fun f -> (Frame.paddr f, Frame.size f)) spans in
        List.iteri
          (fun i (base_i, size_i) ->
            List.iteri
              (fun j (base_j, size_j) ->
                if i < j then
                  check
                    (base_i + size_i <= base_j || base_j + size_j <= base_i)
                    "spans disjoint")
              ranges)
          ranges;
        List.iter Frame.drop spans);
    t "falloc" "reset_allows_reinjection" (fun () ->
        Falloc.reset ();
        check (not (Falloc.is_injected ())) "cleared";
        Falloc.inject (Bootstrap_alloc.make ());
        check (Falloc.is_injected ()) "re-injected");
    t "falloc" "reserved_pages_never_allocated" (fun () ->
        for _ = 1 to 50 do
          let f = Frame.alloc () in
          check (Frame.paddr f >= Boot.reserved_pages * page) "above reserved";
          Frame.drop f
        done);
  ]


(* --- Cross-submodule protocol sequences: the mm interactions KernMiri
   cares most about (frame state transitions driven by vmspace/dma/io
   users). --- *)

let protocol_cases =
  [
    t "frame" "user_mapping_keeps_frame_alive" (fun () ->
        let vm = Vmspace.create () in
        let f = Frame.alloc () in
        let pa = Frame.paddr f in
        Vmspace.map vm ~vaddr:0x1000 f Vmspace.rw;
        (* The caller's handle was consumed; the mapping keeps state. *)
        check (Frame.state_of ~paddr:pa = Frame.Untyped) "alive under mapping";
        Vmspace.destroy vm;
        check (Frame.state_of ~paddr:pa = Frame.Unused) "released on teardown");
    t "frame" "dma_and_user_share_one_frame" (fun () ->
        let vm = Vmspace.create () in
        let f = Frame.alloc () in
        let shared = Frame.clone f in
        Vmspace.map vm ~vaddr:0x1000 f Vmspace.rw;
        let s = Dma.Stream.map shared ~dev:6 in
        let pa = Dma.Stream.paddr s in
        check (Frame.refcount ~paddr:pa = 2) "two owners";
        Dma.Stream.unmap s;
        check (Frame.state_of ~paddr:pa = Frame.Untyped) "mapping still owns it";
        Vmspace.destroy vm;
        check (Frame.state_of ~paddr:pa = Frame.Unused) "fully released");
    t "vmspace" "cow_split_preserves_dma_view" (fun () ->
        (* A COW split must not steal the frame a device still sees. *)
        let vm = Vmspace.create () in
        let f = Frame.alloc () in
        let dev_side = Frame.clone f in
        Vmspace.map vm ~vaddr:0x1000 f Vmspace.rw;
        Untyped.write_u32 dev_side ~off:0 7;
        let child = Vmspace.fork_clone vm in
        check (Vmspace.resolve_cow child ~vaddr:0x1000) "child splits";
        ignore (Vmspace.copy_in child ~vaddr:0x1000 ~buf:(Bytes.make 4 'z') ~pos:0 ~len:4);
        check (Untyped.read_u32 dev_side ~off:0 = 7) "device view intact";
        Vmspace.destroy child;
        Vmspace.destroy vm;
        Frame.drop dev_side);
    t "untyped" "dma_stream_frame_readable_via_untyped" (fun () ->
        let s = Dma.Stream.map (Frame.alloc ()) ~dev:6 in
        Untyped.write_u64 (Dma.Stream.frame s) ~off:0 99L;
        check (Untyped.read_u64 (Dma.Stream.frame s) ~off:0 = 99L) "driver view";
        Dma.Stream.unmap s);
    t "untyped" "page_aliasing_through_clones_is_coherent" (fun () ->
        let f = Frame.alloc () in
        let g = Frame.clone f in
        Untyped.write_u32 f ~off:8 5;
        Untyped.write_u32 g ~off:12 6;
        check (Untyped.read_u32 g ~off:8 = 5) "g sees f's write";
        check (Untyped.read_u32 f ~off:12 = 6) "f sees g's write";
        Frame.drop f;
        Frame.drop g);
    t "slab" "slabs_and_frames_share_the_allocator" (fun () ->
        (* Slab backing pages come from the same injected allocator and
           must never collide with direct frame allocations. *)
        let s = Slab.create ~slot_size:128 ~pages:1 in
        let f = Frame.alloc () in
        let slot = Option.get (Slab.alloc s) in
        check
          (Slab.Heap_slot.addr slot / page <> Frame.paddr f / page)
          "disjoint frames";
        Slab.dealloc s slot;
        Slab.destroy s;
        Frame.drop f);
    t "slab" "destroyed_slab_frames_are_reusable" (fun () ->
        let s = Slab.create ~slot_size:64 ~pages:4 in
        Slab.destroy s;
        let f = Frame.alloc ~pages:4 () in
        Frame.drop f);
    t "dma" "coherent_zero_initialised" (fun () ->
        let c = Dma.Coherent.alloc ~pages:1 ~dev:6 in
        check (Untyped.read_u64 (Dma.Coherent.frame c) ~off:0 = 0L) "fresh dma page is zero";
        Dma.Coherent.free c);
    t "io" "two_windows_do_not_interfere" (fun () ->
        ignore (Machine.Board.attach_default_devices ());
        let blk = Result.get_ok (Io_mem.acquire ~base:Machine.Board.pci_hole_base ~size:0x100) in
        let net =
          Result.get_ok
            (Io_mem.acquire ~base:(Machine.Board.pci_hole_base + 0x1000) ~size:0x100)
        in
        check (Io_mem.read_once blk ~off:4 ~len:4 = 2L) "blk id";
        check (Io_mem.read_once net ~off:4 ~len:4 = 1L) "net id");
    t "kstack" "task_spawn_creates_guarded_stack" (fun () ->
        let live0 = Frame.live_handles () in
        ignore (Task.spawn (fun () -> ()));
        check (Frame.live_handles () > live0) "stack frames held";
        Task.run ());
    t "kstack" "stack_released_when_task_dies" (fun () ->
        ignore (Task.spawn (fun () -> ()));
        Task.run ();
        let live_after = Frame.live_handles () in
        ignore (Task.spawn (fun () -> ()));
        Task.run ();
        check (Frame.live_handles () = live_after) "no stack leak per task");
    t "vmspace" "many_spaces_isolated" (fun () ->
        let spaces = List.init 4 (fun _ -> Vmspace.create ()) in
        List.iteri
          (fun i vm ->
            Vmspace.map vm ~vaddr:0x1000 (Frame.alloc ()) Vmspace.rw;
            let b = Bytes.make 4 (Char.chr (65 + i)) in
            ignore (Vmspace.copy_in vm ~vaddr:0x1000 ~buf:b ~pos:0 ~len:4))
          spaces;
        List.iteri
          (fun i vm ->
            let out = Bytes.create 4 in
            ignore (Vmspace.copy_out vm ~vaddr:0x1000 ~buf:out ~pos:0 ~len:4);
            check (Bytes.get out 0 = Char.chr (65 + i)) "space sees its own data")
          spaces;
        List.iter Vmspace.destroy spaces);
    t "falloc" "allocator_survives_heavy_churn" (fun () ->
        let rng = Sim.Rng.create 7L in
        let held = ref [] in
        for _ = 1 to 200 do
          if Sim.Rng.bool rng || !held = [] then
            held := Frame.alloc ~pages:(1 + Sim.Rng.int rng 4) () :: !held
          else begin
            match !held with
            | f :: rest ->
              Frame.drop f;
              held := rest
            | [] -> ()
          end
        done;
        List.iter Frame.drop !held;
        check (Frame.live_handles () = 0) "balanced after churn");
  ]

let cases =
  frame_cases @ frame_cases_2 @ untyped_cases @ untyped_cases_2 @ vmspace_cases
  @ vmspace_cases_2 @ dma_cases @ dma_cases_2 @ io_cases @ io_cases_2 @ kstack_cases
  @ kstack_cases_2 @ slab_cases @ slab_cases_2 @ falloc_cases @ falloc_cases_2
  @ protocol_cases

let submodules () =
  let seen = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace seen c.submodule ()) cases;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort String.compare

let run_submodule sub =
  let n = ref 0 in
  List.iter
    (fun c ->
      if c.submodule = sub then begin
        incr n;
        c.run ()
      end)
    cases;
  !n
