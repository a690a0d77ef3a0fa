(* Quickstart: a "hello world kernel" in ~100 lines of safe client code,
   after the paper's sample project "Write a Hello World OS Kernel in
   ~100 Lines of Safe Rust with OSTD".

   Everything below uses only OSTD's safe API: boot, inject the two
   mandatory policies, build a user address space, load a "program", and
   run the user-mode loop handling its syscalls.

     dune exec examples/quickstart.exe *)

let page = 4096

(* The kernel's syscall surface: write(1, buf, len) and exit(code). *)
let handle_syscall vm nr (args : int64 array) =
  match nr with
  | 1 (* write *) ->
    let vaddr = Int64.to_int args.(1) and len = Int64.to_int args.(2) in
    let buf = Bytes.create len in
    (match Ostd.Vmspace.copy_out vm ~vaddr ~buf ~pos:0 ~len with
    | Ok () ->
      print_string (Bytes.to_string buf);
      Int64.of_int len
    | Error _ -> -14L (* EFAULT *))
  | 60 (* exit *) -> args.(0)
  | _ -> -38L (* ENOSYS *)

(* The "user program": it only holds a capability to issue syscalls and
   touch its own memory. It writes a greeting placed in its address
   space, then exits. *)
let user_program (u : Ostd.User.uapi) =
  let msg = "Hello, framekernel world!\n" in
  let vaddr = 0x1000 in
  u.Ostd.User.mem_write vaddr (Bytes.of_string msg);
  ignore
    (u.Ostd.User.sys 1 [| 1L; Int64.of_int vaddr; Int64.of_int (String.length msg) |]);
  ignore (u.Ostd.User.sys 60 [| 0L |]);
  0

let () =
  (* Boot: machine models + frame metadata; then inject the policies a
     framekernel client must provide (scheduler, frame allocator). *)
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  Ostd.Task.inject_fifo_scheduler ();
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();

  (* A user address space with one untyped page mapped at 0x1000
     (Inv. 5 would reject typed memory here). *)
  let vm = Ostd.Vmspace.create () in
  Ostd.Vmspace.map vm ~vaddr:0x1000 (Ostd.Frame.alloc ()) Ostd.Vmspace.rw;

  (* One kernel task running the user-mode loop of the paper's Fig. 3:
     return to user, wait for a trap, handle, repeat. *)
  let uthread = Ostd.User.create user_program vm in
  ignore
    (Ostd.Task.spawn ~name:"init" (fun () ->
         let rec loop resume =
           match Ostd.User.execute uthread resume with
           | Ostd.User.Syscall { nr; args } ->
             loop (Ostd.User.Sysret (handle_syscall vm nr args))
           | Ostd.User.Page_fault { vaddr; _ } ->
             (* Demand-page anonymous memory. *)
             Ostd.Vmspace.map vm
               ~vaddr:(vaddr / page * page)
               (Ostd.Frame.alloc ())
               Ostd.Vmspace.rw;
             loop Ostd.User.Fault_resolved
           | Ostd.User.Exit code ->
             Printf.printf "user program exited with status %d\n" code
         in
         loop Ostd.User.Start));
  Ostd.Task.run ();
  Ostd.Vmspace.destroy vm;
  Printf.printf "virtual time elapsed: %.2f us\n" (Sim.Time.to_us (Sim.Time.now ()))
