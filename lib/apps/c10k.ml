(* c10k: event-driven echo service at connection scale.

   The guest runs a single-task epoll echo server in edge-triggered
   mode: accept4(SOCK_NONBLOCK) conns, drain-until-EAGAIN per event.
   The host holds a pool of mostly-idle connections against it and, per
   round, retires and replaces a few (churn) then pings a small batch,
   timing each echo. Because epoll_wait sweeps only the ready queue,
   the per-wait work (the epoll.scan_work counter) and the echo tail
   must stay flat as the idle pool grows — O(ready), not O(registered).
   The @bench-smoke gate pins exactly that. *)

let port = 7000

let spawn_server () =
  Runner.spawn ~name:"c10k-srv" (fun c ->
      let sfd = Libc.socket c ~domain:2 ~typ:1 in
      ignore (Libc.bind_inet c ~fd:sfd ~port);
      ignore (Libc.listen c ~fd:sfd ~backlog:4096);
      ignore (Libc.set_nonblock c ~fd:sfd);
      let ep = Libc.epoll_create1 c in
      ignore
        (Libc.epoll_ctl c ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:sfd
           ~events:(Libc.epollin lor Libc.epollet)
           ~data:(Int64.of_int sfd));
      let buf = Libc.ualloc c 65536 in
      (* close(2) removes the fd from the interest list (EPOLLFREE),
         so teardown is one syscall even at churn rate. *)
      let drop fd = ignore (Libc.close c fd) in
      let accept_burst () =
        let continue = ref true in
        while !continue do
          let conn = Libc.accept4 c ~fd:sfd ~flags:Libc.o_nonblock in
          if conn < 0 then continue := false
          else
            ignore
              (Libc.epoll_ctl c ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:conn
                 ~events:(Libc.epollin lor Libc.epollet lor Libc.epollrdhup)
                 ~data:(Int64.of_int conn))
        done
      in
      (* ET contract: a reported conn must be drained to EAGAIN or the
         edge is lost. Echo every chunk straight back. *)
      let serve_conn fd =
        let continue = ref true in
        while !continue do
          let n = Libc.read c ~fd ~vaddr:buf ~len:4096 in
          if n > 0 then ignore (Libc.write c ~fd ~vaddr:buf ~len:n)
          else begin
            continue := false;
            if n = 0 then drop fd (* peer closed *)
          end
        done
      in
      let continue = ref true in
      while !continue do
        match Libc.epoll_wait c ~epfd:ep ~maxevents:256 ~timeout_ms:(-1) with
        | Error _ -> continue := false
        | Ok (_, evs) ->
          List.iter
            (fun (data, events) ->
              let fd = Int64.to_int data in
              if fd = sfd then accept_burst ()
              else if events land (Libc.epollhup lor Libc.epollerr) <> 0 then drop fd
              else serve_conn fd)
            evs
      done;
      0)

type result = {
  conns : int;
  pings : int;
  churned : int;
  p50_us : float;
  p99_us : float;
  max_us : float;
  scan_per_wait : float;
  wait_calls : int;
}

let run ~host ~conns ~rounds ~batch ~churn ~on_done =
  ignore
    (Ostd.Task.spawn ~name:"c10k-driver" (fun () ->
         let htcp = host.Aster.Kernel.htcp in
         let connect_retry () =
           let rec go n =
             match Aster.Tcp.connect htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:port with
             | Ok c -> c
             | Error _ ->
               if n = 0 then failwith "c10k: server unreachable"
               else begin
                 Ostd.Task.sleep_us 200.;
                 go (n - 1)
               end
           in
           go 100
         in
         let pool = Array.init conns (fun _ -> connect_retry ()) in
         (* Let the server drain its accept backlog before measuring. *)
         Ostd.Task.sleep_us 2000.;
         let h = Sim.Hist.named "c10k.wakeup_us" in
         let scan0 = Sim.Stats.get "epoll.scan_work" in
         let wait0 = Sim.Stats.get "epoll.wait_calls" in
         let ping = Bytes.make 16 'p' in
         let rbuf = Bytes.create 64 in
         let pings = ref 0 and churned = ref 0 in
         let victim = ref 0 in
         for round = 0 to rounds - 1 do
           (* Connection churn: close a few idle conns and replace them,
              mid-measurement — registration/teardown rides the same
              readiness path the pings are timed on. *)
           for _ = 1 to churn do
             let i = !victim in
             victim := (i + 37) mod conns;
             Aster.Tcp.close pool.(i);
             pool.(i) <- connect_retry ();
             incr churned
           done;
           (* A burst of pings spread across the pool: several fds turn
              ready per epoll_wait, so the sweep is exercised with
              ready-set > 1 while the idle crowd stays registered. *)
           let t0 = Sim.Time.now () in
           let step = max 1 (conns / max 1 batch) in
           let sent = ref [] in
           for j = 0 to batch - 1 do
             let i = ((j * step) + round) mod conns in
             ignore (Aster.Tcp.send pool.(i) ~buf:ping ~pos:0 ~len:16);
             sent := i :: !sent
           done;
           List.iter
             (fun i ->
               let got = ref 0 in
               while !got < 16 do
                 match Aster.Tcp.recv pool.(i) ~buf:rbuf ~pos:0 ~len:16 with
                 | Ok 0 | Error _ -> got := 16
                 | Ok n -> got := !got + n
               done;
               Sim.Hist.record_time h (Sim.Time.now () - t0);
               incr pings)
             (List.rev !sent)
         done;
         let waits = Sim.Stats.get "epoll.wait_calls" - wait0 in
         let scans = Sim.Stats.get "epoll.scan_work" - scan0 in
         on_done
           {
             conns;
             pings = !pings;
             churned = !churned;
             p50_us = Option.value ~default:nan (Sim.Hist.percentile h 50.);
             p99_us = Option.value ~default:nan (Sim.Hist.percentile h 99.);
             max_us = Sim.Hist.max_value h;
             scan_per_wait =
               (if waits > 0 then float_of_int scans /. float_of_int waits else nan);
             wait_calls = waits;
           }))
