type t = { mutable q : Task.t list }

let create () = { q = [] }

let sleep wq =
  Atomic_mode.assert_sleepable "WaitQueue.sleep";
  let t = Task.current () in
  wq.q <- wq.q @ [ t ];
  Task.block ();
  (* Timeout paths may leave us in the list; drop stale entries. *)
  wq.q <- List.filter (fun w -> Task.tid w <> Task.tid t) wq.q

let sleep_until wq cond =
  while not (cond ()) do
    sleep wq
  done

(* One event-heap entry per timeout, fixed before the programming
   charge so it fires on its exact cycle; a wake through the queue
   takes it out of the heap. *)
let sleep_timeout wq ~cycles =
  let t = Task.current () in
  let deadline = Sim.Time.now () + cycles in
  Sim.Stats.incr "timer.armed";
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.timer_program;
  let fired = ref false in
  let ev =
    Sim.Events.schedule_at (Int.max deadline (Sim.Time.now ())) (fun () ->
        fired := true;
        Sim.Stats.incr "timer.fired";
        Task.wake t)
  in
  sleep wq;
  if not !fired then begin
    Sim.Events.cancel ev;
    Sim.Stats.incr "timer.cancelled"
  end;
  not !fired

let rec wake_one wq =
  match wq.q with
  | [] -> false
  | t :: rest ->
    wq.q <- rest;
    if Task.is_dead t then wake_one wq
    else begin
      Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.wakeup;
      Task.wake t;
      true
    end

let wake_all wq =
  let n = ref 0 in
  while wake_one wq do
    incr n
  done;
  !n

let waiters wq = List.length wq.q
