type t = { vec : int; mutable name : string }

let handlers : (int, unit -> unit) Hashtbl.t = Hashtbl.create 16

let next_vector = ref 48

let post_hook : (unit -> unit) ref = ref (fun () -> ())

let count = ref 0

let claimed : (int, unit) Hashtbl.t = Hashtbl.create 8

(* --- Storm throttling (graceful degradation, Inv. 3) ---

   A flaky or hostile device can fire interrupts faster than the kernel
   can usefully service them. Per vector we count deliveries inside a
   sliding window; past the threshold the vector is masked and serviced
   by a polled fallback instead: a timer event runs the handler once,
   unmasks, and lets the window restart. Work is never lost — handlers
   are reap-style and idempotent, and the poll services whatever
   accumulated while masked — but a storm can no longer monopolise the
   CPU. *)

let storm_threshold = 64

let storm_window_us = 200.

let poll_delay_us = 300.

type vstat = { mutable wstart : Sim.Time.t; mutable n : int; mutable masked : bool }

let vstats : (int, vstat) Hashtbl.t = Hashtbl.create 8

let masked_vectors = ref 0

let reset () =
  Hashtbl.reset handlers;
  Hashtbl.reset claimed;
  Hashtbl.reset vstats;
  next_vector := 48;
  post_hook := (fun () -> ());
  count := 0;
  masked_vectors := 0

(* kprof scope per vector, memoized so the hot path never formats. *)
let scope_names : (int, string) Hashtbl.t = Hashtbl.create 8

let irq_scope vector =
  match Hashtbl.find_opt scope_names vector with
  | Some s -> s
  | None ->
    let s = "irq" ^ string_of_int vector in
    Hashtbl.add scope_names vector s;
    s

let vstat_of vector =
  match Hashtbl.find_opt vstats vector with
  | Some v -> v
  | None ->
    let v = { wstart = Sim.Time.now (); n = 0; masked = false } in
    Hashtbl.add vstats vector v;
    v

let run_handler vector =
  match Hashtbl.find_opt handlers vector with
  | Some h ->
    (* Top half runs in atomic mode: sleeping here is the class of bug
       OSTD's atomic-mode enforcement exists to catch. A service-level
       failure inside a handler is contained — the device loses this
       delivery, the kernel does not go down with it. *)
    Atomic_mode.enter ();
    (match Fun.protect ~finally:Atomic_mode.exit (fun () -> Panic.contain h) with
    | Ok () -> ()
    | Error _ -> Sim.Stats.incr "irq.handler_contained")
  | None -> Sim.Stats.incr "irq.unhandled"

let vector_point name fields =
  Sim.Trace.point Sim.Trace.Irq name fields (fun f -> Printf.sprintf "vector=%d" f.a)

let tp_poll = vector_point "poll" [| "vector" |]

let tp_entry = vector_point "entry" [| "vector"; "now_ns" |]

let tp_exit = vector_point "exit" [| "vector" |]

let polled_service vector =
  let vs = vstat_of vector in
  (* Degradation path: the storm was survived by polling, so this
     counts toward the recovered leg of the chaos quartet. *)
  Sim.Stats.incr "degrade.recovered.irq_poll";
  Sim.Trace.emit1 tp_poll vector;
  Sim.Prof.scope (irq_scope vector) (fun () ->
      run_handler vector;
      vs.masked <- false;
      decr masked_vectors;
      vs.wstart <- Sim.Time.now ();
      vs.n <- 0;
      !post_hook ())

let dispatch vector =
  incr count;
  let vs = vstat_of vector in
  if vs.masked then
    (* Deliveries while masked are dropped on the floor; the pending
       poll will reap whatever they signalled. *)
    Sim.Stats.incr "irq.masked_dropped"
  else begin
    (* Implicit kprof scope: everything spent servicing the delivery —
       entry cost, handler and the post-hook softirq drain — attributes
       to irq<vector>, and any task woken from inside it gets the
       IRQ-delivery leg, from the scope's entry cycle, on its span. *)
    Sim.Prof.scope (irq_scope vector) (fun () ->
        Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.irq_entry;
        Sim.Trace.emit2 tp_entry vector (Sim.Time.to_ns (Sim.Time.now ()));
        let now = Sim.Time.now () in
        if now - vs.wstart > Sim.Time.of_us storm_window_us then begin
          vs.wstart <- now;
          vs.n <- 0
        end;
        vs.n <- vs.n + 1;
        if vs.n > storm_threshold then begin
          vs.masked <- true;
          incr masked_vectors;
          Sim.Stats.incr "irq.storm_masked";
          Logs.debug (fun m -> m "irq: vector %d storming, masked + polling" vector);
          ignore
            (Sim.Events.schedule_after (Sim.Time.of_us poll_delay_us) (fun () ->
                 polled_service vector))
        end
        else run_handler vector;
        Sim.Trace.emit1 tp_exit vector;
        !post_hook ())
  end

let install_dispatcher () = Machine.Irq_chip.set_dispatcher dispatch

let alloc ?(name = "irq") () =
  let vec = !next_vector in
  incr next_vector;
  if vec > 255 then Panic.panic "Irq.alloc: vector space exhausted";
  { vec; name }

let claim ~vector ?(name = "irq") () =
  if Hashtbl.mem claimed vector then Panic.panicf "Irq.claim: vector %d already claimed" vector;
  Hashtbl.add claimed vector ();
  { vec = vector; name }

let vector t = t.vec

let set_handler t h = Hashtbl.replace handlers t.vec h

let bind_device t ~dev = Machine.Irq_chip.remap_allow ~dev ~vector:t.vec

let unbind_device t ~dev = Machine.Irq_chip.remap_revoke ~dev ~vector:t.vec

let set_post_hook f = post_hook := f

let delivered () = !count

let is_masked ~vector =
  match Hashtbl.find_opt vstats vector with Some v -> v.masked | None -> false

let masked_count () = !masked_vectors
