type status = Running | Zombie of int

type t = {
  pid_v : int;
  mutable parent : int;
  mutable children : int list;
  mutable mm_v : Mm.t;
  mutable fdt_v : File.Table.t;
  mutable cwd_v : Vfs.resolved;
  mutable ut : Ostd.User.t option;
  mutable status : status;
  exit_wq : Ostd.Wait_queue.t;
  mutable comm_v : string;
  mutable umask_v : int;
  mutable is_thread : bool; (* clone-with-shared-mm: skip teardown of shared state *)
  sigs : Signal.state;
  mutable task : Ostd.Task.t option;
}

type action = Ret of int64 | Exec_done | Terminated

let pid t = t.pid_v
let comm t = t.comm_v
let mm t = t.mm_v
let fdt t = t.fdt_v
let cwd t = t.cwd_v

(* A cwd holds its directory as an open file description does, so a
   removed cwd lives until the process moves away or exits. *)
let set_cwd t c =
  Vfs.opened c.Vfs.inode;
  Vfs.closed t.cwd_v.Vfs.inode;
  t.cwd_v <- c

let umask t = t.umask_v
let set_umask t m = t.umask_v <- m
let parent_pid t = t.parent

let table : (int, t) Hashtbl.t = Hashtbl.create 64

(* task tid -> process *)
let by_task : (int, t) Hashtbl.t = Hashtbl.create 64

let next_pid = ref 0

let handler : (t -> int -> int64 array -> action) ref =
  ref (fun _ _ _ -> Ostd.Panic.panic "Process: no syscall handler installed")

let child_resolver : (int64 -> (Ostd.User.uapi -> int) option) ref = ref (fun _ -> None)

let set_syscall_handler f = handler := f

let set_child_resolver f = child_resolver := f

let resolve_child tok = !child_resolver tok

let reset () =
  Hashtbl.reset table;
  Hashtbl.reset by_task;
  next_pid := 0

let by_pid p = Hashtbl.find_opt table p

let task t = t.task

let all () =
  Hashtbl.fold (fun _ p acc -> p :: acc) table []
  |> List.sort (fun a b -> compare a.pid_v b.pid_v)

let spawned_count () = !next_pid

let alive_count () =
  Hashtbl.fold (fun _ p n -> if p.status = Running then n + 1 else n) table 0

let current () =
  let tid = Ostd.Task.tid (Ostd.Task.current ()) in
  match Hashtbl.find_opt by_task tid with
  | Some p -> p
  | None -> Ostd.Panic.panic "Process.current: task has no process"

(* --- Exit and wait --- *)

(* A process lets go of its files, address space and cwd once. *)
let release proc code =
  (match proc.ut with Some ut -> Ostd.User.abandon ut | None -> ());
  proc.ut <- None;
  if not proc.is_thread then begin
    File.Table.close_all proc.fdt_v;
    Mm.destroy proc.mm_v
  end;
  if proc.status = Running then Vfs.closed proc.cwd_v.Vfs.inode;
  proc.status <- Zombie code

let do_exit proc code =
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.exit_base;
  release proc code;
  (* Auto-reap zombie children (no one will wait for them now). *)
  List.iter
    (fun cpid ->
      match Hashtbl.find_opt table cpid with
      | Some c when c.status <> Running -> Hashtbl.remove table cpid
      | Some c -> c.parent <- 1
      | None -> ())
    proc.children;
  (match Hashtbl.find_opt table proc.parent with
  | Some parent -> ignore (Ostd.Wait_queue.wake_all parent.exit_wq)
  | None -> ());
  Ostd.Task.exit ()

(* Terminate another process on behalf of a signal: reap its resources
   and prevent its task from ever running again. *)
let terminate_other proc signal =
  release proc (128 + signal);
  (match proc.task with Some task -> Ostd.Task.kill task | None -> ());
  match Hashtbl.find_opt table proc.parent with
  | Some parent -> ignore (Ostd.Wait_queue.wake_all parent.exit_wq)
  | None -> ()

(* --- The user-mode loop: the kernel side of Figure 3 in the paper. --- *)

let fault_point name =
  Sim.Trace.point Sim.Trace.Pgfault name [| "vaddr"; "write" |] (fun f ->
      Printf.sprintf "vaddr=%#x write=%b" f.a (f.b <> 0))

let tp_fault = fault_point "fault"

let tp_segv = fault_point "segv"

let rec run_user proc resume =
  match proc.ut with
  | None -> ()
  | Some ut -> (
    (* CPU-accounting boundary: cycles charged while user code runs
       (between here and the next trap) accrue as utime; everything on
       the kernel side of the trap accrues as stime. *)
    Ostd.Task.account_user_entry ();
    let trap = Ostd.User.execute ut resume in
    Ostd.Task.account_kernel_entry ();
    match trap with
    | Ostd.User.Syscall { nr; args } -> (
      (* Auto-span boundary: with kspan auto mode on and no span active
         on this task, the syscall itself is the request. Opened before
         the tracepoints so the enter/exit records (and everything the
         handler emits) carry the span id, and before the IRQ delivery
         point so interrupt servicing that preempts this trap lands on
         the span's critical path. Zero virtual cost either way. *)
      let auto_span = Sim.Span.syscall_begin (Syscall_nr.name nr) in
      let arg0 = if Array.length args > 0 then args.(0) else 0L in
      Strace.enter ~nr ~pid:proc.pid_v ~arg0;
      (* Interrupt delivery point: a busy process cannot starve IRQs —
         hardware would have preempted it, so fire everything due. *)
      ignore (Sim.Events.run_due ());
      (* Signal delivery point: pending terminating signals fire at the
         kernel boundary, like return-to-user delivery. *)
      (match Signal.take_deliverable proc.sigs with
      | Some signal -> do_exit proc (128 + signal)
      | None -> ());
      let t0 = Sim.Time.now () in
      (* Journal-commit overlap for the syscall:exit point: sampled
         here so a commit that starts and finishes inside this syscall
         still counts. One int read; no virtual cost. *)
      let jseq0 = Jbd.commits () in
      let jbd0 = Jbd.is_committing () in
      (* Implicit kprof scope per syscall nr: kernel-side cycles of this
         call attribute to syscall.<name> under the calling task. *)
      match Sim.Prof.scope (Syscall_nr.scope_name nr) (fun () -> !handler proc nr args) with
      | Ret v ->
        (* Latency covers kernel work only; a handler that never
           returns (exit, fatal signal) records no exit event, exactly
           like strace. *)
        let cycles = Sim.Time.now () - t0 in
        let journal_commit = jbd0 || Jbd.is_committing () || Jbd.commits () > jseq0 in
        Strace.exit_ ~nr ~ret:v ~cycles ~pid:proc.pid_v ~arg0 ~journal_commit;
        Sim.Span.syscall_end auto_span;
        run_user proc (Ostd.User.Sysret v)
      | Exec_done ->
        Sim.Span.syscall_end auto_span;
        run_user proc Ostd.User.Start
      | Terminated -> Sim.Span.syscall_end auto_span)
    | Ostd.User.Page_fault { vaddr; write } ->
      Sim.Trace.emit2 tp_fault vaddr (Bool.to_int write);
      if Sim.Prof.scope "pgfault" (fun () -> Mm.handle_fault proc.mm_v ~vaddr ~write) then
        run_user proc Ostd.User.Fault_resolved
      else begin
        Sim.Trace.emit2 tp_segv vaddr (Bool.to_int write);
        Logs.debug (fun m ->
            m "pid %d (%s): segfault at %#x" proc.pid_v proc.comm_v vaddr);
        do_exit proc 139
      end
    | Ostd.User.Exit code -> do_exit proc code)

let make_proc ~parent ~comm ~mm ~fdt ~cwd ~is_thread =
  incr next_pid;
  Vfs.opened cwd.Vfs.inode;
  let proc =
    {
      pid_v = !next_pid;
      parent;
      children = [];
      mm_v = mm;
      fdt_v = fdt;
      cwd_v = cwd;
      ut = None;
      status = Running;
      exit_wq = Ostd.Wait_queue.create ();
      comm_v = comm;
      umask_v = 0o022;
      is_thread;
      sigs = Signal.fresh ();
      task = None;
    }
  in
  Hashtbl.replace table proc.pid_v proc;
  proc

let start_task proc body =
  let task =
    Ostd.Task.spawn ~name:proc.comm_v (fun () ->
        proc.ut <- Some (Ostd.User.create body (Mm.vmspace proc.mm_v));
        run_user proc Ostd.User.Start)
  in
  proc.task <- Some task;
  Hashtbl.replace by_task (Ostd.Task.tid task) proc;
  task

let spawn_kernel_style ~name body =
  let proc =
    make_proc ~parent:0 ~comm:name ~mm:(Mm.create ()) ~fdt:(File.Table.create ())
      ~cwd:(Vfs.root ()) ~is_thread:false
  in
  ignore (start_task proc (fun uapi -> body uapi));
  proc

let fork_current proc ~child =
  (* Mm.fork charges fork_base + per-page page-table copy. *)
  let mm = Mm.fork proc.mm_v in
  let cp =
    make_proc ~parent:proc.pid_v ~comm:proc.comm_v ~mm ~fdt:(File.Table.clone proc.fdt_v)
      ~cwd:proc.cwd_v ~is_thread:false
  in
  proc.children <- cp.pid_v :: proc.children;
  ignore (start_task cp child);
  cp.pid_v

let spawn_thread proc ~body =
  let cp =
    make_proc ~parent:proc.pid_v ~comm:proc.comm_v ~mm:proc.mm_v ~fdt:proc.fdt_v
      ~cwd:proc.cwd_v ~is_thread:true
  in
  proc.children <- cp.pid_v :: proc.children;
  Sim.Cost.charge 9000 (* clone(2): no address-space copy *);
  ignore (start_task cp body);
  cp.pid_v

let do_exec proc path argv =
  match Uprog_registry.find path with
  | None -> Error Errno.enoent
  | Some prog ->
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.exec_base;
    (match proc.ut with Some ut -> Ostd.User.abandon ut | None -> ());
    if not proc.is_thread then Mm.destroy proc.mm_v;
    proc.mm_v <- Mm.create ();
    proc.comm_v <- Uprog_registry.basename path;
    proc.ut <- Some (Ostd.User.create (fun uapi -> prog uapi argv) (Mm.vmspace proc.mm_v));
    Ok ()

let signals t = t.sigs

let deliver_signal proc signal =
  match Signal.post proc.sigs ~signal with
  | `Ignored | `Queued -> ()
  | `Terminate ->
    let self =
      match Ostd.Task.current_opt () with
      | Some t -> ( match Hashtbl.find_opt by_task (Ostd.Task.tid t) with
                    | Some p -> p.pid_v = proc.pid_v
                    | None -> false)
      | None -> false
    in
    if self then do_exit proc (128 + signal) else terminate_other proc signal

let wait_child proc =
  if proc.children = [] then Error Errno.echild
  else begin
    let find_zombie () =
      List.find_map
        (fun cpid ->
          match Hashtbl.find_opt table cpid with
          | Some c -> ( match c.status with Zombie code -> Some (c, code) | Running -> None)
          | None -> None)
        proc.children
    in
    Ostd.Wait_queue.sleep_until proc.exit_wq (fun () -> find_zombie () <> None);
    match find_zombie () with
    | Some (c, code) ->
      proc.children <- List.filter (fun p -> p <> c.pid_v) proc.children;
      Hashtbl.remove table c.pid_v;
      Ok (c.pid_v, code)
    | None -> Error Errno.echild
  end
