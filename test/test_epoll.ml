(* epoll + wait-queue readiness: differential conformance suite.

   The readiness layer makes one promise in two halves:
   - epoll_wait in level-triggered mode must agree with poll(2), fd for
     fd and bit for bit, under any interleaving of writes, drains and
     closes (no lost wakeups, no phantom readiness);
   - edge-triggered mode must fire exactly once per level transition
     (no spurious ET events), with ONESHOT disarm/rearm and unmaskable
     ERR/HUP layered on top.

   The suites here pin both halves: a randomized differential driver
   compares the two interfaces step by step over pipes and unix
   socketpairs; an ET/ONESHOT matrix checks transition semantics
   including peer close (FIN) and abortive reset (RST); timed sleeps
   are checked against a naive sorted-list oracle; the epoll/poll
   timeout paths must return at the exact virtual deadline without
   busy-looping; and an "epoll-churn" chaos group runs the c10k
   edge-triggered server under injected TX faults with connection
   churn, asserting liveness and same-seed byte-identical schedules. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module L = Apps.Libc

let boot () = Apps.Runner.boot ~profile:Sim.Profile.asterinas

(* --- Timed sleeps: Wait_queue.sleep_timeout vs a sorted-list oracle ---

   Every epoll/poll deadline is a [Wait_queue.sleep_timeout]: one
   event-heap entry per armed timeout, taken out when the queue wakes
   the sleeper first. The oracle arms many of them from separate
   tasks against one far base instant, so deadlines collide on
   purpose, and wakes a seeded third through their queues halfway to
   the deadline. Wakeups are observed on the sched:wakeup tracepoint,
   so the check sees firing order, not scheduler order. *)

let timer_counts () =
  (Sim.Stats.get "timer.armed", Sim.Stats.get "timer.fired", Sim.Stats.get "timer.cancelled")

type sleeper = {
  s_deadline : Sim.Time.t;
  s_early : bool; (* woken through the queue halfway to the deadline *)
  mutable s_tid : int;
  mutable s_seq : int; (* arm order *)
  mutable s_armed_at : Sim.Time.t;
  mutable s_result : bool option;
  mutable s_resumed : Sim.Time.t;
}

let timeout_oracle seed () =
  ignore (boot ());
  let rng = Sim.Rng.create seed in
  let n = 200 in
  let wakes = ref [] in
  let wakeup = List.hd (Sim.Trace.find "sched:wakeup") in
  Sim.Trace.attach wakeup ~name:"test.timer_order" (fun ctx ->
      wakes := (ctx.(0), Sim.Time.now ()) :: !wakes);
  let arm_seq = ref 0 in
  let finished = ref 0 in
  let done_wq = Ostd.Wait_queue.create () in
  let sleepers = ref [||] in
  Apps.Runner.spawn ~name:"oracle" (fun _c ->
      Ostd.Task.sleep_us 1000.;
      (* Far enough out that every sleeper has armed before the first
         deadline, so no deadline is overrun while arming. *)
      let base = Sim.Time.now () + 20_000_000 in
      sleepers :=
        Array.init n (fun _ ->
            let early = Sim.Rng.int rng 3 = 0 in
            (* Mixed magnitudes (up to 2, 20 or 200 ms past the base),
               plus a small shared set so that equal deadlines are common;
               early-woken sleepers sit at least 100k cycles further
               out so their waker always comes first. *)
            let offset =
              match Sim.Rng.int rng 4 with
              | 0 -> [| 0; 30_000_000; 300_000_000 |].(Sim.Rng.int rng 3)
              | 1 -> Sim.Rng.int rng 6_000_000
              | 2 -> Sim.Rng.int rng 60_000_000
              | _ -> Sim.Rng.int rng 600_000_000
            in
            let offset = if early then offset + 100_000 else offset in
            {
              s_deadline = base + offset;
              s_early = early;
              s_tid = 0;
              s_seq = -1;
              s_armed_at = 0;
              s_result = None;
              s_resumed = 0;
            });
      Array.iter
        (fun s ->
          ignore
            (Ostd.Task.spawn ~name:"sleeper" (fun () ->
                 let wq = Ostd.Wait_queue.create () in
                 let now = Sim.Time.now () in
                 let left = s.s_deadline - now in
                 if s.s_early then
                   ignore
                     (Ostd.Task.spawn ~name:"waker" (fun () ->
                          Ostd.Task.sleep_cycles (left / 2);
                          ignore (Ostd.Wait_queue.wake_one wq : bool)));
                 s.s_tid <- Ostd.Task.tid (Ostd.Task.current ());
                 s.s_seq <- !arm_seq;
                 incr arm_seq;
                 s.s_armed_at <- now;
                 s.s_result <- Some (Ostd.Wait_queue.sleep_timeout wq ~cycles:left);
                 s.s_resumed <- Sim.Time.now ();
                 incr finished;
                 if !finished = n then ignore (Ostd.Wait_queue.wake_all done_wq : int))))
        !sleepers;
      Ostd.Wait_queue.sleep_until done_wq (fun () -> !finished = n);
      0);
  Apps.Runner.run ();
  Sim.Trace.detach wakeup ~name:"test.timer_order";
  let sleepers = Array.to_list !sleepers in
  check_int "every sleeper returned" n !finished;
  check "every sleeper armed before the base instant" true
    (List.for_all (fun s -> s.s_armed_at < s.s_deadline) sleepers);
  List.iter
    (fun s ->
      check "woken early exactly when the queue woke it" true (s.s_result = Some s.s_early))
    sleepers;
  let timed_out = List.filter (fun s -> not s.s_early) sleepers in
  List.iter
    (fun s ->
      check "no timed-out task resumes before its deadline" true
        (s.s_resumed >= s.s_deadline))
    timed_out;
  (* Firing order: each timed-out sleeper's wakeup, in the order the
     probe point saw them, against a naive sorted list keyed by
     (deadline, arm order). *)
  let by_tid = Hashtbl.create n in
  List.iter (fun s -> Hashtbl.replace by_tid s.s_tid s) timed_out;
  let fired =
    List.rev !wakes |> List.filter_map (fun (tid, at) ->
        Option.map (fun s -> (s, at)) (Hashtbl.find_opt by_tid tid))
  in
  let expect =
    List.sort (fun a b -> compare (a.s_deadline, a.s_seq) (b.s_deadline, b.s_seq)) timed_out
  in
  check_int "every timed-out sleeper fired once" (List.length expect) (List.length fired);
  check "equal deadlines share a cycle" true
    (List.exists
       (fun a -> List.exists (fun b -> a != b && a.s_deadline = b.s_deadline) timed_out)
       timed_out);
  List.iter2
    (fun e (s, at) ->
      check_int "fired in (deadline, arm order)" e.s_seq s.s_seq;
      let lag = at - s.s_deadline in
      check "never early, never far late" true (lag >= 0 && lag < 50_000))
    expect fired;
  (* A timeout is late only when the CPU is busy at its deadline,
     running a task some earlier wakeup made runnable. With no wakeup
     of any task in the 100k cycles before it, it fires on its exact
     deadline cycle. *)
  let quiet = ref 0 in
  let rec scan prev = function
    | [] -> ()
    | (tid, at) :: rest ->
      (match Hashtbl.find_opt by_tid tid with
      | Some s when s.s_deadline - prev >= 100_000 ->
        incr quiet;
        check "an uncontended timeout fires on its exact cycle" true (at = s.s_deadline)
      | Some _ | None -> ());
      scan at rest
  in
  scan 0 (List.rev !wakes);
  check "a third of the timeouts are uncontended" true (!quiet * 3 >= List.length timed_out);
  let armed, fired_n, cancelled = timer_counts () in
  check_int "one timer per sleeper" n armed;
  check_int "cancelled = woken early" (n - List.length timed_out) cancelled;
  check_int "armed = fired + cancelled" armed (fired_n + cancelled)

let timeout_edge_cases () =
  ignore (boot ());
  let results = ref [] in
  Apps.Runner.spawn ~name:"edge" (fun _c ->
      let me = Ostd.Task.current () in
      List.iter
        (fun cycles ->
          let wq = Ostd.Wait_queue.create () in
          let vol0, _ = Ostd.Task.ctx_switches me in
          let t0 = Sim.Time.now () in
          let woken = Ostd.Wait_queue.sleep_timeout wq ~cycles in
          let vol1, _ = Ostd.Task.ctx_switches me in
          results := (cycles, woken, vol1 - vol0, Sim.Time.now () - t0) :: !results)
        [ 0; -5000 ];
      0);
  Apps.Runner.run ();
  check_int "both timeouts returned" 2 (List.length !results);
  List.iter
    (fun (cycles, woken, blocked, dt) ->
      let what = if cycles = 0 then "zero-cycle timeout" else "already-expired timeout" in
      check (what ^ " times out") false woken;
      (* Had the timer fired inside the call, before the task blocked,
         its wake would have been lost and the sleep would never
         return. *)
      check_int (what ^ " blocks once before it fires") 1 blocked;
      check (what ^ " fires promptly, clamped to now") true (Sim.Time.to_us dt < 1.0))
    !results;
  let armed, fired, cancelled = timer_counts () in
  check_int "two armed" 2 armed;
  check_int "both fired" 2 fired;
  check_int "none cancelled" 0 cancelled

(* --- Timeout paths: exact virtual deadline, no busy loop --- *)

let epoll_timeout_exact () =
  ignore (boot ());
  let dt = ref nan and ret = ref (-1) in
  Apps.Runner.spawn ~name:"tmo" (fun c ->
      let r, _w = Result.get_ok (L.pipe c) in
      let ep = L.epoll_create1 c in
      ignore (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd:r ~events:L.epollin ~data:1L);
      let t0 = Sim.Time.now () in
      (match L.epoll_wait c ~epfd:ep ~maxevents:8 ~timeout_ms:3 with
      | Ok (n, _) -> ret := n
      | Error _ -> ret := -2);
      dt := Sim.Time.to_us (Sim.Time.now () - t0);
      0);
  Apps.Runner.run ();
  check_int "timed-out epoll_wait reports 0 fds" 0 !ret;
  (* The timeout fires at the exact deadline; only the sub-µs wake +
     syscall-exit overhead sits between it and the caller's clock. *)
  check "returns at the virtual deadline" true (!dt >= 3000.0 && !dt < 3001.0)

let poll_timeout_exact_no_spin () =
  ignore (boot ());
  let dt = ref nan and ret = ref (-1) and switches = ref max_int in
  Apps.Runner.spawn ~name:"ptmo" (fun c ->
      let r, _w = Result.get_ok (L.pipe c) in
      let s0 = Ostd.Task.context_switches () in
      let t0 = Sim.Time.now () in
      (match L.poll c [ (r, L.pollin) ] ~timeout_ms:5 with
      | Ok (n, _) -> ret := n
      | Error _ -> ret := -2);
      dt := Sim.Time.to_us (Sim.Time.now () - t0);
      switches := Ostd.Task.context_switches () - s0;
      0);
  Apps.Runner.run ();
  check_int "timed-out poll reports 0 fds" 0 !ret;
  check "returns at the virtual deadline" true (!dt >= 5000.0 && !dt < 5001.0);
  (* The old sys_poll busy-looped (yield per scan: thousands of
     switches over 5 ms). Blocking on the wait queue takes a handful. *)
  check "poll blocks on the wait queue instead of spinning" true (!switches <= 10)

(* --- poll(2) regressions: POLLNVAL, POLLHUP --- *)

let poll_closed_fd_pollnval () =
  ignore (boot ());
  let code = ref (-1) in
  Apps.Runner.spawn ~name:"nval" (fun c ->
      let r, w = Result.get_ok (L.pipe c) in
      ignore (L.close c r);
      (match L.poll c [ (r, L.pollin); (w, L.pollout) ] ~timeout_ms:(-1) with
      | Ok (2, [ (_, rr); (_, wr) ]) ->
        if rr <> L.pollnval then code := 1
        else if wr land L.pollout = 0 then code := 2
        else code := 0
      | Ok _ -> code := 3
      | Error _ -> code := 4);
      0);
  Apps.Runner.run ();
  check_int "closed fd polls POLLNVAL, open fd still levels" 0 !code

let poll_eof_pollhup () =
  ignore (boot ());
  let code = ref (-1) in
  Apps.Runner.spawn ~name:"hup" (fun c ->
      let r, w = Result.get_ok (L.pipe c) in
      ignore (L.write_str c ~fd:w "x");
      ignore (L.close c w);
      (match L.poll c [ (r, L.pollin) ] ~timeout_ms:0 with
      | Ok (1, [ (_, rr) ]) when rr = L.pollin lor L.pollhup ->
        (* Drain the byte: EOF with no data is POLLHUP alone, and it is
           reported even though only POLLIN was requested. *)
        ignore (L.read_str c ~fd:r ~len:16);
        (match L.poll c [ (r, 0) ] ~timeout_ms:0 with
        | Ok (1, [ (_, rr') ]) when rr' = L.pollhup -> code := 0
        | Ok (_, [ (_, rr') ]) -> code := 100 + rr'
        | _ -> code := 5)
      | Ok (_, [ (_, rr) ]) -> code := 200 + rr
      | _ -> code := 6);
      0);
  Apps.Runner.run ();
  check_int "EOF'd pipe polls POLLIN|POLLHUP then bare POLLHUP" 0 !code

(* --- Differential: epoll_wait(LT) == poll(2), randomized schedules --- *)

let diff_run seed =
  ignore (boot ());
  let log = ref [] in
  let mismatches = ref [] in
  Apps.Runner.spawn ~name:"diff" (fun c ->
      let rng = Sim.Rng.create seed in
      let npipes = 4 in
      let pr = Array.make npipes (-1) and pw = Array.make npipes (-1) in
      let buffered = Array.make npipes 0 in
      for i = 0 to npipes - 1 do
        let r, w = Result.get_ok (L.pipe c) in
        pr.(i) <- r;
        pw.(i) <- w
      done;
      let lfd = L.socket c ~domain:1 ~typ:1 in
      ignore (L.bind_unix c ~fd:lfd ~path:"/tmp/diffsock");
      ignore (L.listen c ~fd:lfd ~backlog:4);
      let sa = L.socket c ~domain:1 ~typ:1 in
      ignore (L.connect_unix c ~fd:sa ~path:"/tmp/diffsock");
      let sb = L.accept c ~fd:lfd in
      let sbuf_ab = ref 0 and sbuf_ba = ref 0 in
      (* One watched set drives both interfaces: the poll list is
         rebuilt from it each step, the epoll interest list tracks it
         via ADD on watch and close(2) auto-removal (EPOLLFREE) on
         unwatch — so the two kernels' views stay identical by
         construction and any divergence is a readiness bug. *)
      let smask = L.pollin lor L.pollout lor L.pollrdhup in
      let watched : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ep = L.epoll_create1 c in
      let watch fd mask =
        Hashtbl.replace watched fd mask;
        ignore (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd ~events:mask ~data:(Int64.of_int fd))
      in
      let unwatch fd =
        Hashtbl.remove watched fd;
        ignore (L.close c fd)
      in
      for i = 0 to npipes - 1 do
        watch pr.(i) L.pollin;
        watch pw.(i) L.pollout
      done;
      watch sa smask;
      watch sb smask;
      let snapshot step =
        let fds = List.sort compare (Hashtbl.fold (fun fd m acc -> (fd, m) :: acc) watched []) in
        let pollset =
          match L.poll c fds ~timeout_ms:0 with
          | Error e -> [ (-1, e) ]
          | Ok (_, revs) -> List.filter (fun (_, r) -> r <> 0) revs
        in
        let epset =
          match L.epoll_wait c ~epfd:ep ~maxevents:32 ~timeout_ms:0 with
          | Error e -> [ (-1, e) ]
          | Ok (_, evs) -> List.sort compare (List.map (fun (d, ev) -> (Int64.to_int d, ev)) evs)
        in
        let show s = String.concat ";" (List.map (fun (fd, b) -> Printf.sprintf "%d:%x" fd b) s) in
        log := Printf.sprintf "step %d poll[%s] epoll[%s]" step (show pollset) (show epset) :: !log;
        if pollset <> epset then
          mismatches :=
            Printf.sprintf "step %d: poll[%s] <> epoll[%s]" step (show pollset) (show epset)
            :: !mismatches
      in
      snapshot (-1);
      for step = 0 to 79 do
        (match Sim.Rng.int rng 6 with
        | 0 | 1 ->
          let i = Sim.Rng.int rng npipes in
          if Hashtbl.mem watched pw.(i) then begin
            ignore (L.write_str c ~fd:pw.(i) "01234567");
            buffered.(i) <- buffered.(i) + 8
          end
        | 2 ->
          let i = Sim.Rng.int rng npipes in
          if Hashtbl.mem watched pr.(i) && (buffered.(i) > 0 || not (Hashtbl.mem watched pw.(i)))
          then begin
            let s = L.read_str c ~fd:pr.(i) ~len:5 in
            buffered.(i) <- max 0 (buffered.(i) - String.length s)
          end
        | 3 ->
          if Hashtbl.mem watched sa && Sim.Rng.bool rng then begin
            ignore (L.write_str c ~fd:sa "ping");
            sbuf_ab := !sbuf_ab + 4
          end
          else if Hashtbl.mem watched sb && (!sbuf_ab > 0 || not (Hashtbl.mem watched sa))
          then begin
            let s = L.read_str c ~fd:sb ~len:4096 in
            sbuf_ab := max 0 (!sbuf_ab - String.length s)
          end
        | 4 ->
          if step > 40 then begin
            let i = Sim.Rng.int rng npipes in
            if Hashtbl.mem watched pw.(i) then unwatch pw.(i)
            else if Hashtbl.mem watched pr.(i) then unwatch pr.(i)
          end
        | _ ->
          if step > 60 && Hashtbl.mem watched sa then begin
            ignore (!sbuf_ba);
            unwatch sa
          end);
        snapshot step
      done;
      0);
  Apps.Runner.run ();
  (List.rev !log, List.rev !mismatches)

let differential seed () =
  let _log, mm = diff_run seed in
  Alcotest.(check (list string)) "epoll(LT) and poll(2) agree at every step" [] mm

let differential_determinism () =
  let log1, _ = diff_run 42L in
  let log2, _ = diff_run 42L in
  Alcotest.(check (list string)) "same seed, byte-identical schedule log" log1 log2;
  let log3, _ = diff_run 7L in
  check "different seed, different schedule" true (log1 <> log3)

(* --- App payloads: the epoll loop answers each RESP command exactly --- *)

let redis_replies () =
  ignore (boot ());
  Apps.Mini_redis.spawn ();
  let replies = ref [] in
  Apps.Runner.spawn ~name:"rclient" (fun c ->
      let fd = L.socket c ~domain:2 ~typ:1 in
      let lo = Aster.Packet.ip_of_string "127.0.0.1" in
      let rec wait n =
        if L.connect_inet c ~fd ~ip:lo ~port:Apps.Mini_redis.port >= 0 then true
        else if n = 0 then false
        else begin
          ignore (L.nanosleep_us c 200.);
          wait (n - 1)
        end
      in
      if not (wait 50) then 1
      else begin
        List.iter
          (fun cmd ->
            ignore (L.write_str c ~fd (cmd ^ "\n"));
            replies := L.read_str c ~fd ~len:4096 :: !replies)
          [ "SET k v"; "GET k"; "INCR n"; "INCR n"; "RPUSH l a"; "RPUSH l b"; "LRANGE l 0 1";
            "APPEND k x"; "STRLEN k"; "GET missing"; "DEL k"; "EXISTS k" ];
        0
      end);
  Apps.Runner.run ();
  List.rev !replies

let app_payload_differential () =
  Alcotest.(check (list string))
    "byte-identical RESP replies"
    [ "+OK\n"; "$v\n"; ":1\n"; ":2\n"; ":1\n"; ":2\n"; "*2\n$a\n$b\n"; ":2\n"; ":2\n"; "$-1\n";
      ":1\n"; ":0\n" ]
    (redis_replies ())

(* --- ET / ONESHOT semantics matrix --- *)

let et_fires_once_per_transition () =
  ignore (boot ());
  let code = ref (-1) in
  Apps.Runner.spawn ~name:"et" (fun c ->
      let r, w = Result.get_ok (L.pipe c) in
      let ep = L.epoll_create1 c in
      let wait0 () =
        match L.epoll_wait c ~epfd:ep ~maxevents:8 ~timeout_ms:0 with
        | Ok (n, _) -> n
        | Error _ -> -1
      in
      (* Pending level at ADD time is reported even for ET (Linux). *)
      ignore (L.write_str c ~fd:w "a");
      ignore
        (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd:r
           ~events:(L.epollin lor L.epollet) ~data:1L);
      if wait0 () <> 1 then code := 1
      else if wait0 () <> 0 then code := 2 (* no transition, no re-report *)
      else begin
        ignore (L.write_str c ~fd:w "b");
        if wait0 () <> 1 then code := 3 (* fresh edge: fires again *)
        else if wait0 () <> 0 then code := 4
        else begin
          ignore (L.read_str c ~fd:r ~len:16);
          if wait0 () <> 0 then code := 5 (* drained, still nothing *)
          else begin
            ignore (L.write_str c ~fd:w "c");
            if wait0 () <> 1 then code := 6 else code := 0
          end
        end
      end;
      0);
  Apps.Runner.run ();
  check_int "ET fires exactly once per readability transition" 0 !code

let oneshot_disarm_rearm () =
  ignore (boot ());
  let code = ref (-1) in
  Apps.Runner.spawn ~name:"oneshot" (fun c ->
      let r, w = Result.get_ok (L.pipe c) in
      let ep = L.epoll_create1 c in
      let wait0 () =
        match L.epoll_wait c ~epfd:ep ~maxevents:8 ~timeout_ms:0 with
        | Ok (n, _) -> n
        | Error _ -> -1
      in
      ignore
        (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd:r
           ~events:(L.epollin lor L.epolloneshot) ~data:1L);
      ignore (L.write_str c ~fd:w "a");
      if wait0 () <> 1 then code := 1
      else if wait0 () <> 0 then code := 2 (* disarmed after one report *)
      else begin
        ignore (L.write_str c ~fd:w "b");
        if wait0 () <> 0 then code := 3 (* still disarmed, even on new data *)
        else begin
          ignore
            (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_mod ~fd:r
               ~events:(L.epollin lor L.epolloneshot) ~data:1L);
          if wait0 () <> 1 then code := 4 (* MOD rearms against pending level *)
          else if wait0 () <> 0 then code := 5
          else code := 0
        end
      end;
      0);
  Apps.Runner.run ();
  check_int "ONESHOT reports once, MOD rearms" 0 !code

let unix_peer_close_hup () =
  ignore (boot ());
  let seen = ref (-1) in
  Apps.Runner.spawn ~name:"uhup" (fun c ->
      let lfd = L.socket c ~domain:1 ~typ:1 in
      ignore (L.bind_unix c ~fd:lfd ~path:"/tmp/hupsock");
      ignore (L.listen c ~fd:lfd ~backlog:4);
      let sa = L.socket c ~domain:1 ~typ:1 in
      ignore (L.connect_unix c ~fd:sa ~path:"/tmp/hupsock");
      let sb = L.accept c ~fd:lfd in
      let ep = L.epoll_create1 c in
      ignore
        (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd:sb
           ~events:(L.epollin lor L.epollrdhup) ~data:1L);
      ignore (L.close c sa);
      (match L.epoll_wait c ~epfd:ep ~maxevents:8 ~timeout_ms:0 with
      | Ok (1, [ (_, ev) ]) -> seen := ev
      | _ -> seen := -2);
      0);
  Apps.Runner.run ();
  check_int "peer close raises IN|HUP|RDHUP (HUP unmasked)"
    (L.epollin lor L.epollhup lor L.epollrdhup)
    !seen

(* TCP peer teardown against the guest's epoll: a graceful FIN must
   surface RDHUP(+IN), an abortive RST must surface the unmaskable
   ERR|HUP — the "injected reset" row of the ET fault matrix. *)
let tcp_peer_event ~abortive =
  let k = boot () in
  let host = Aster.Kernel.attach_host k in
  let seen = ref (-1) in
  Apps.Runner.spawn ~name:"tcpev" (fun c ->
      let sfd = L.socket c ~domain:2 ~typ:1 in
      ignore (L.bind_inet c ~fd:sfd ~port:7100);
      ignore (L.listen c ~fd:sfd ~backlog:8);
      let conn = L.accept c ~fd:sfd in
      let ep = L.epoll_create1 c in
      ignore
        (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd:conn
           ~events:(L.epollin lor L.epollet lor L.epollrdhup) ~data:9L);
      (match L.epoll_wait c ~epfd:ep ~maxevents:8 ~timeout_ms:(-1) with
      | Ok (_, (_, ev) :: _) -> seen := ev
      | _ -> seen := -2);
      0);
  ignore
    (Ostd.Task.spawn ~name:"tcppeer" (fun () ->
         let rec go n =
           match
             Aster.Tcp.connect host.Aster.Kernel.htcp ~dst_ip:Aster.Kernel.guest_ip
               ~dst_port:7100
           with
           | Ok conn -> conn
           | Error _ ->
             if n = 0 then failwith "tcp_peer_event: guest unreachable"
             else begin
               Ostd.Task.sleep_us 200.;
               go (n - 1)
             end
         in
         let conn = go 100 in
         Ostd.Task.sleep_us 500.;
         if abortive then Aster.Tcp.abort conn else Aster.Tcp.close conn));
  Apps.Runner.run ();
  !seen

let tcp_fin_rdhup () =
  let ev = tcp_peer_event ~abortive:false in
  check "FIN raises EPOLLRDHUP" true (ev land L.epollrdhup <> 0);
  check "FIN raises EPOLLIN (EOF readable)" true (ev land L.epollin <> 0)

let tcp_rst_err_hup () =
  let ev = tcp_peer_event ~abortive:true in
  check "RST raises EPOLLERR" true (ev land L.epollerr <> 0);
  check "RST raises EPOLLHUP" true (ev land L.epollhup <> 0)

(* --- fdinfo observability --- *)

let fdinfo_renders_epoll () =
  ignore (boot ());
  let out = ref "" in
  Apps.Runner.spawn ~name:"fdinfo" (fun c ->
      let r, _w = Result.get_ok (L.pipe c) in
      let ep = L.epoll_create1 c in
      ignore (L.epoll_ctl c ~epfd:ep ~op:L.epoll_ctl_add ~fd:r ~events:L.epollin ~data:77L);
      let pid = L.getpid c in
      let fd = L.openf c (Printf.sprintf "/proc/%d/fdinfo" pid) ~flags:0 ~mode:0 in
      if fd >= 0 then out := L.read_str c ~fd ~len:4096;
      0);
  Apps.Runner.run ();
  let has needle =
    let hl = String.length !out and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub !out i nl = needle || go (i + 1)) in
    go 0
  in
  check "fdinfo lists the epoll fd" true (has "type: epoll");
  check "fdinfo renders the registration" true (has "data: 4d")

(* --- epoll-churn chaos group: ET server under TX faults --- *)

let churn_schedule = [ ("net.tx_fail", 0.05); ("net.tx_drop", 0.02) ]

let churn_run seed =
  let k = boot () in
  let host = Aster.Kernel.attach_host k in
  Sim.Fault.configure ~seed churn_schedule;
  Apps.C10k.spawn_server ();
  let res = ref None in
  Apps.C10k.run ~host ~conns:48 ~rounds:6 ~batch:8 ~churn:3 ~on_done:(fun r -> res := Some r);
  Apps.Runner.run ();
  let injected = Sim.Fault.total_injected () in
  let flog = Sim.Fault.log () in
  Sim.Fault.disable ();
  match !res with
  | None -> Alcotest.fail "epoll-churn run hung"
  | Some r -> (r, injected, flog)

let churn_soak seed () =
  let r, injected, _log = churn_run seed in
  check_int "every ping completed (liveness under faults)" (6 * 8) r.Apps.C10k.pings;
  check_int "every churn cycle completed" (6 * 3) r.Apps.C10k.churned;
  check "faults actually fired" true (injected > 0);
  check "latency histogram populated" true (not (Float.is_nan r.Apps.C10k.p99_us))

let churn_determinism () =
  let r1, _, log1 = churn_run 42L in
  let r2, _, log2 = churn_run 42L in
  Alcotest.(check (list string)) "same seed, byte-identical fault log" log1 log2;
  check "same seed, identical result" true (r1 = r2);
  let _, _, log3 = churn_run 7L in
  check "different seed, different schedule" true (log1 <> log3)

let () =
  Alcotest.run "epoll"
    [
      (* The timed-sleep suite keeps the name of the hashed timer wheel
         that sleep_timeout replaced. *)
      ( "wheel",
        [
          Alcotest.test_case "oracle_seed42" `Quick (timeout_oracle 42L);
          Alcotest.test_case "oracle_seed7" `Quick (timeout_oracle 7L);
          Alcotest.test_case "oracle_seed1234" `Quick (timeout_oracle 1234L);
          Alcotest.test_case "edge_cases" `Quick timeout_edge_cases;
        ] );
      ( "timeout",
        [
          Alcotest.test_case "epoll_exact_deadline" `Quick epoll_timeout_exact;
          Alcotest.test_case "poll_exact_no_spin" `Quick poll_timeout_exact_no_spin;
        ] );
      ( "poll_regress",
        [
          Alcotest.test_case "pollnval_closed_fd" `Quick poll_closed_fd_pollnval;
          Alcotest.test_case "pollhup_eof_pipe" `Quick poll_eof_pollhup;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lt_eq_poll_seed11" `Quick (differential 11L);
          Alcotest.test_case "lt_eq_poll_seed23" `Quick (differential 23L);
          Alcotest.test_case "lt_eq_poll_seed42" `Quick (differential 42L);
          Alcotest.test_case "determinism" `Quick differential_determinism;
          Alcotest.test_case "app_payloads" `Quick app_payload_differential;
        ] );
      ( "et_matrix",
        [
          Alcotest.test_case "once_per_transition" `Quick et_fires_once_per_transition;
          Alcotest.test_case "oneshot_rearm" `Quick oneshot_disarm_rearm;
          Alcotest.test_case "unix_peer_hup" `Quick unix_peer_close_hup;
          Alcotest.test_case "tcp_fin_rdhup" `Quick tcp_fin_rdhup;
          Alcotest.test_case "tcp_rst_err_hup" `Quick tcp_rst_err_hup;
        ] );
      ("fdinfo", [ Alcotest.test_case "renders_epoll" `Quick fdinfo_renders_epoll ]);
      ( "epoll_churn",
        [
          Alcotest.test_case "soak_seed11" `Quick (churn_soak 11L);
          Alcotest.test_case "soak_seed23" `Quick (churn_soak 23L);
          Alcotest.test_case "soak_seed42" `Quick (churn_soak 42L);
          Alcotest.test_case "determinism" `Quick churn_determinism;
        ] );
    ]
