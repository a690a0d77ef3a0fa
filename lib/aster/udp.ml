type socket = {
  eng : engine;
  mutable port : int option;
  rxq : Packet.t Queue.t; (* received datagrams, payload views and all *)
  wq : Ostd.Wait_queue.t;
  mutable closed : bool;
  pollable : Pollable.t; (* POLLIN on queued datagrams; always POLLOUT *)
}

and engine = {
  stack : Netstack.t;
  by_port : (int, socket) Hashtbl.t;
  mutable next_ephemeral : int;
}

let rx_limit = 256

let engine_rx eng (p : Packet.t) =
  match Hashtbl.find_opt eng.by_port p.Packet.dst_port with
  | Some sock when not sock.closed ->
    if Queue.length sock.rxq < rx_limit then begin
      Netstack.charge eng.stack (Sim.Cost.c ()).Sim.Profile.udp_packet;
      Queue.push p sock.rxq;
      ignore (Ostd.Wait_queue.wake_one sock.wq);
      Pollable.publish sock.pollable Pollable.pollin
    end
    else Sim.Stats.incr "udp.rx_dropped"
  | Some _ | None -> Sim.Stats.incr "udp.no_socket"

let create_engine stack =
  let eng = { stack; by_port = Hashtbl.create 32; next_ephemeral = 40000 } in
  Netstack.set_udp_rx stack (engine_rx eng);
  eng

let socket eng =
  let sock =
    {
      eng;
      port = None;
      rxq = Queue.create ();
      wq = Ostd.Wait_queue.create ();
      closed = false;
      pollable = Pollable.create (fun () -> 0);
    }
  in
  Pollable.set_level sock.pollable (fun () ->
      if sock.closed then Pollable.pollhup
      else
        (if Queue.is_empty sock.rxq then 0 else Pollable.pollin)
        (* A UDP socket can always take another datagram. *)
        lor Pollable.pollout);
  sock

let pollable sock = sock.pollable

let bind sock ~port =
  if Hashtbl.mem sock.eng.by_port port then Error Errno.eaddrinuse
  else begin
    sock.port <- Some port;
    Hashtbl.replace sock.eng.by_port port sock;
    Ok ()
  end

let ensure_bound sock =
  match sock.port with
  | Some p -> p
  | None ->
    let rec pick () =
      let p = sock.eng.next_ephemeral in
      sock.eng.next_ephemeral <- sock.eng.next_ephemeral + 1;
      if Hashtbl.mem sock.eng.by_port p then pick () else p
    in
    let p = pick () in
    sock.port <- Some p;
    Hashtbl.replace sock.eng.by_port p sock;
    p

let sendto sock ~dst_ip ~dst_port ~buf ~pos ~len =
  if sock.closed then Error Errno.ebadf
  else begin
    let src_port = ensure_bound sock in
    Netstack.charge sock.eng.stack (Sim.Cost.c ()).Sim.Profile.udp_packet;
    Netstack.send sock.eng.stack
      (Packet.make ~src_ip:(Netstack.ip sock.eng.stack) ~dst_ip ~proto:Packet.Udp ~src_port
         ~dst_port (Bytes.sub buf pos len));
    Ok len
  end

let recvfrom ?(nonblock = false) sock ~buf ~pos ~len =
  if sock.closed then Error Errno.ebadf
  else if nonblock && Queue.is_empty sock.rxq then Error Errno.eagain
  else begin
    Ostd.Wait_queue.sleep_until sock.wq (fun () -> (not (Queue.is_empty sock.rxq)) || sock.closed);
    match Queue.take_opt sock.rxq with
    | None -> Error Errno.ebadf
    | Some p ->
      let n = min len p.Packet.len in
      Bytes.blit p.Packet.payload p.Packet.off buf pos n;
      Ok (n, p.Packet.src_ip, p.Packet.src_port)
  end

let close sock =
  if not sock.closed then begin
    sock.closed <- true;
    (match sock.port with Some p -> Hashtbl.remove sock.eng.by_port p | None -> ());
    ignore (Ostd.Wait_queue.wake_all sock.wq);
    Pollable.publish sock.pollable Pollable.pollhup
  end
