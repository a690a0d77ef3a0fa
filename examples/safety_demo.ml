(* A tour of the framekernel invariants: each scenario attempts exactly
   the misuse the invariant forbids and shows OSTD stopping it.

     dune exec examples/safety_demo.exe *)

let scenario name f =
  Sim.Profile.set Sim.Profile.asterinas;
  Kernmiri.Corpus.fresh_boot ();
  match f () with
  | () -> Printf.printf "  %-58s NOT CAUGHT (bug!)\n" name
  | exception Ostd.Panic.Kernel_panic msg ->
    Printf.printf "  %-58s caught: %s\n" name msg

let soft_scenario name f =
  (* For invariants enforced by refusal (Result) rather than panic. *)
  Sim.Profile.set Sim.Profile.asterinas;
  Kernmiri.Corpus.fresh_boot ();
  match f () with
  | Error msg -> Printf.printf "  %-58s refused: %s\n" name msg
  | Ok () -> Printf.printf "  %-58s NOT CAUGHT (bug!)\n" name

let () =
  print_endline "Framekernel invariant enforcement demo";
  print_endline "--------------------------------------";

  scenario "Inv.1  buggy allocator hands out an in-use frame" (fun () ->
      let f = Ostd.Frame.alloc () in
      match Ostd.Frame.from_unused ~paddr:(Ostd.Frame.paddr f) ~pages:1 with
      | Ok _ -> ()
      | Error e -> Ostd.Panic.panic e);

  (* Typed frames are their own type (Ostd.Frame.Typed.t), so these
     three misuses are compile errors, not panics: the negative
     compilation rule in test/typed_misuse/dune checks that each fails
     to compile. *)
  List.iter
    (fun name -> Printf.printf "  %-58s rejected at compile time (test/typed_misuse)\n" name)
    [
      "typed  untyped read of kernel (typed) memory";
      "Inv.5  mapping kernel memory into a user address space";
      "Inv.6  DMA mapping over kernel (typed) memory";
    ];

  soft_scenario "Inv.7  driver claims the local APIC's MMIO window" (fun () ->
      match Ostd.Io_mem.acquire ~base:Machine.Board.lapic_base ~size:16 with
      | Ok _ -> Ok ()
      | Error e -> Error e);

  (* Inv.3: a device signalling a vector it was never granted. *)
  Sim.Profile.set Sim.Profile.asterinas;
  Kernmiri.Corpus.fresh_boot ();
  let line = Ostd.Irq.alloc () in
  let fired = ref false in
  Ostd.Irq.set_handler line (fun () -> fired := true);
  Ostd.Irq.bind_device line ~dev:5;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 6) ~vector:(Ostd.Irq.vector line);
  ignore (Sim.Events.run_next ());
  Printf.printf "  %-58s %s\n" "Inv.3  spoofed interrupt from an unbound device"
    (if !fired then "NOT CAUGHT (bug!)"
     else
       Printf.sprintf "blocked by interrupt remapping (%d spoof%s counted)"
         (Machine.Irq_chip.blocked_spoofs ())
         (if Machine.Irq_chip.blocked_spoofs () = 1 then "" else "s"));

  scenario "Inv.8  scheduler runs one task on two CPUs" (fun () ->
      (* A pick_next that re-offers the running task; the nested dispatch
         inside the task is the second CPU. *)
      Ostd.Boot.init ();
      Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
      Ostd.Boot.feed_free_memory ();
      let the_task = ref None in
      let module Buggy = struct
        let enqueue t = the_task := Some t
        let pick_next () = !the_task
        let update_curr () = ()
        let dequeue_curr () = ()
      end in
      Ostd.Task.inject_scheduler (module Buggy);
      ignore (Ostd.Task.spawn (fun () -> Ostd.Task.run ()));
      Ostd.Task.run ());

  scenario "Inv.9  destroying a slab with live objects" (fun () ->
      let s = Ostd.Slab.create ~slot_size:64 ~pages:1 in
      let slot = Option.get (Ostd.Slab.alloc s) in
      let _box = Ostd.Slab.into_box slot ~size:16 ~align:8 () in
      Ostd.Slab.destroy s);

  scenario "Inv.10 boxing an object into a too-small slot" (fun () ->
      let s = Ostd.Slab.create ~slot_size:32 ~pages:1 in
      let slot = Option.get (Ostd.Slab.alloc s) in
      ignore (Ostd.Slab.into_box slot ~size:64 ~align:8 "oversized"));

  scenario "atomic  sleeping while holding a spin lock" (fun () ->
      let lock = Ostd.Sync.Spin_lock.create "demo" in
      ignore
        (Ostd.Task.spawn (fun () ->
             Ostd.Sync.Spin_lock.with_lock lock (fun () -> Ostd.Task.sleep_us 1.)));
      Ostd.Task.run ());

  scenario "stack  guard page catches runaway recursion" (fun () ->
      let k = Ostd.Kstack.create () in
      let rec deep n = if n > 0 then Ostd.Kstack.with_frame k ~bytes:4000 (fun () -> deep (n - 1)) in
      deep 64)
