type result = { requests : int; elapsed_us : float; rps : float }

let run ~host ~path ~concurrency ~requests ~on_done =
  let remaining = ref requests in
  let active = ref concurrency in
  let started = ref None in
  let htcp = host.Aster.Kernel.htcp in
  let request buf =
    match Aster.Tcp.connect htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:Mini_nginx.port with
    | Error _ -> false
    | Ok conn ->
      (* The clock starts at the first *successful* connect: before that
         the server is still booting and the workers are in their
         200 us refusal-retry loop — ab benchmarks serving, not server
         startup (which the 200 us quantisation would otherwise charge
         to whichever profile boots slower). *)
      if !started = None then started := Some (Sim.Time.now ());
      Aster.Tcp.set_nodelay conn;
      let req = Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path) in
      ignore (Aster.Tcp.send conn ~buf:req ~pos:0 ~len:(Bytes.length req));
      let continue = ref true in
      while !continue do
        match Aster.Tcp.recv conn ~buf ~pos:0 ~len:(Bytes.length buf) with
        | Ok 0 | Error _ -> continue := false
        | Ok _ -> ()
      done;
      Aster.Tcp.close conn;
      true
  in
  let finish () =
    decr active;
    if !active = 0 then begin
      let t0 = Option.value ~default:0 !started in
      let elapsed_us = Sim.Time.to_us (Sim.Time.now () - t0) in
      let done_reqs = requests - !remaining in
      on_done
        {
          requests = done_reqs;
          elapsed_us;
          rps = (if elapsed_us > 0. then float_of_int done_reqs /. elapsed_us *. 1e6 else 0.);
        }
    end
  in
  for i = 1 to concurrency do
    ignore
      (Ostd.Task.spawn
         ~name:(Printf.sprintf "ab-%d" i)
         (fun () ->
           (* One receive buffer per client: each response is drained
              and dropped, so the next request reuses it. *)
           let buf = Bytes.create 65536 in
           let continue = ref true in
           while !continue do
             if !remaining <= 0 then continue := false
             else begin
               decr remaining;
               if not (request buf) then begin
                 (* Connection refused: server not up yet; retry shortly. *)
                 incr remaining;
                 Ostd.Task.sleep_us 200.
               end
             end
           done;
           finish ()))
  done
