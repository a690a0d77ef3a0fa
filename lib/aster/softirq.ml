let softirqs : (unit -> unit) Queue.t = Queue.create ()

let work : (unit -> unit) Queue.t = Queue.create ()

(* Re-created on every install: a wait queue must never carry task
   references across a reboot (stale blocked tasks would be "woken" into
   the new scheduler). *)
let kworker_wq = ref (Ostd.Wait_queue.create ())

let tp_entry =
  Sim.Trace.point Sim.Trace.Softirq "entry" [| "pending" |] (fun f ->
      Printf.sprintf "pending=%d" f.a)

let tp_exit = Sim.Trace.point Sim.Trace.Softirq "exit" [||] (fun _ -> "")

let drain_softirqs () =
  while not (Queue.is_empty softirqs) do
    let f = Queue.pop softirqs in
    (* Implicit kprof scope: bottom-half cycles attribute to "softirq"
       in whichever context drains them (irq exit or idle), and a task
       woken from here gets the softirq leg on its span. *)
    Sim.Prof.scope "softirq" (fun () ->
        Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.softirq;
        Sim.Trace.emit1 tp_entry (Queue.length softirqs + 1);
        f ();
        Sim.Trace.emit0 tp_exit)
  done

let raise_softirq f = Queue.push f softirqs

let queue_work f =
  Queue.push f work;
  ignore (Ostd.Wait_queue.wake_one !kworker_wq)

let pending () = Queue.length softirqs + Queue.length work

let kworker () =
  let wq = !kworker_wq in
  while true do
    Ostd.Wait_queue.sleep_until wq (fun () -> not (Queue.is_empty work));
    while not (Queue.is_empty work) do
      (Queue.pop work) ()
    done
  done

let install () =
  Queue.clear softirqs;
  Queue.clear work;
  kworker_wq := Ostd.Wait_queue.create ();
  Ostd.Irq.set_post_hook drain_softirqs;
  Ostd.Task.on_idle drain_softirqs;
  let t = Ostd.Task.spawn ~name:"kworker" kworker in
  (* Bottom-half work should preempt fair tasks promptly. *)
  Sched_policy.set_class t (Sched_policy.Rt 50)
