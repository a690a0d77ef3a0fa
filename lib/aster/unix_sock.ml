(* A unidirectional ring shared by a connected pair; an endpoint reads
   one ring and writes the other. *)
type ring = {
  buf : Bytes.t;
  mutable head : int;
  mutable count : int;
  mutable closed : bool;
  rd_wq : Ostd.Wait_queue.t;
  wr_wq : Ostd.Wait_queue.t;
  (* Readiness back-refs: the pollable of the endpoint that reads this
     ring, and of the one that writes it. Set once at socketpair time
     (the rings exist before the endpoints that share them). *)
  mutable rd_pb : Pollable.t option;
  mutable wr_pb : Pollable.t option;
}

type endpoint = { rx : ring; tx : ring; ep_pollable : Pollable.t }

let make_ring () =
  let cap = (Sim.Profile.get ()).Sim.Profile.unix_buffer in
  {
    buf = Bytes.create cap;
    head = 0;
    count = 0;
    closed = false;
    rd_wq = Ostd.Wait_queue.create ();
    wr_wq = Ostd.Wait_queue.create ();
    rd_pb = None;
    wr_pb = None;
  }

let publish_opt pb edge = match pb with Some p -> Pollable.publish p edge | None -> ()

(* Readable on buffered bytes or EOF; HUP once either side closed
   (close marks both rings); writable while open with space — the
   Linux AF_UNIX poll contract. *)
let endpoint_level ep () =
  (if ep.rx.count > 0 || ep.rx.closed then Pollable.pollin else 0)
  lor (if ep.rx.closed || ep.tx.closed then Pollable.pollhup lor Pollable.pollrdhup else 0)
  lor
  if (not ep.tx.closed) && ep.tx.count < Bytes.length ep.tx.buf then Pollable.pollout else 0

let socketpair () =
  let a2b = make_ring () and b2a = make_ring () in
  let a = { rx = b2a; tx = a2b; ep_pollable = Pollable.create (fun () -> 0) } in
  let b = { rx = a2b; tx = b2a; ep_pollable = Pollable.create (fun () -> 0) } in
  Pollable.set_level a.ep_pollable (endpoint_level a);
  Pollable.set_level b.ep_pollable (endpoint_level b);
  a2b.rd_pb <- Some b.ep_pollable;
  a2b.wr_pb <- Some a.ep_pollable;
  b2a.rd_pb <- Some a.ep_pollable;
  b2a.wr_pb <- Some b.ep_pollable;
  (a, b)

let pollable ep = ep.ep_pollable

let cap r = Bytes.length r.buf

let push r src pos len =
  let n = min len (cap r - r.count) in
  let tail = (r.head + r.count) mod cap r in
  let first = min n (cap r - tail) in
  Bytes.blit src pos r.buf tail first;
  Bytes.blit src (pos + first) r.buf 0 (n - first);
  r.count <- r.count + n;
  n

let pop r dst pos len =
  let n = min len r.count in
  let first = min n (cap r - r.head) in
  Bytes.blit r.buf r.head dst pos first;
  Bytes.blit r.buf 0 dst (pos + first) (n - first);
  r.head <- (r.head + n) mod cap r;
  r.count <- r.count - n;
  n

let charge_op len =
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.unix_op;
  (* skb-based implementations copy user->skb and skb->user; the ring
     design moves bytes once (the syscall layer's user copy). *)
  if (Sim.Profile.get ()).Sim.Profile.unix_double_copy then Sim.Cost.charge_user_copy len

let send ?(nonblock = false) ep ~buf ~pos ~len =
  let r = ep.tx in
  if r.closed then Error Errno.epipe
  else if nonblock && r.count >= cap r then Error Errno.eagain
  else begin
    let written = ref 0 in
    let err = ref None in
    while !written < len && !err = None && not (nonblock && r.count >= cap r) do
      Ostd.Wait_queue.sleep_until r.wr_wq (fun () -> r.count < cap r || r.closed);
      if r.closed then err := Some Errno.epipe
      else begin
        let n = push r buf (pos + !written) (len - !written) in
        charge_op n;
        written := !written + n;
        ignore (Ostd.Wait_queue.wake_one r.rd_wq);
        publish_opt r.rd_pb Pollable.pollin
      end
    done;
    match !err with Some e when !written = 0 -> Error e | _ -> Ok !written
  end

let recv ?(nonblock = false) ep ~buf ~pos ~len =
  let r = ep.rx in
  if nonblock && r.count = 0 && not r.closed then Error Errno.eagain
  else begin
    Ostd.Wait_queue.sleep_until r.rd_wq (fun () -> r.count > 0 || r.closed);
    if r.count = 0 then Ok 0
    else if len = 0 then Error Errno.efault
    else begin
      let n = pop r buf pos len in
      charge_op n;
      ignore (Ostd.Wait_queue.wake_one r.wr_wq);
      publish_opt r.wr_pb Pollable.pollout;
      Ok n
    end
  end

let close ep =
  ep.tx.closed <- true;
  ep.rx.closed <- true;
  ignore (Ostd.Wait_queue.wake_all ep.tx.rd_wq);
  ignore (Ostd.Wait_queue.wake_all ep.tx.wr_wq);
  ignore (Ostd.Wait_queue.wake_all ep.rx.rd_wq);
  ignore (Ostd.Wait_queue.wake_all ep.rx.wr_wq);
  (* Both endpoints see the edge: the peer's reader gets EOF/HUP, the
     peer's writer gets its EPIPE-to-come, and our own registrations
     (if any survive the fd close) observe the same. *)
  let edge = Pollable.pollin lor Pollable.pollhup lor Pollable.pollrdhup in
  publish_opt ep.tx.rd_pb edge;
  publish_opt ep.tx.wr_pb edge;
  publish_opt ep.rx.rd_pb edge;
  publish_opt ep.rx.wr_pb edge

let readable ep = ep.rx.count > 0 || ep.rx.closed

(* --- Listener namespace --- *)

type listener = {
  path : string;
  backlog : endpoint Queue.t;
  wq : Ostd.Wait_queue.t;
  mutable open_ : bool;
  l_pollable : Pollable.t;
}

let namespace : (string, listener) Hashtbl.t = Hashtbl.create 16

let reset_namespace () = Hashtbl.reset namespace

let listen ~path =
  if Hashtbl.mem namespace path then Error Errno.eaddrinuse
  else begin
    let l =
      {
        path;
        backlog = Queue.create ();
        wq = Ostd.Wait_queue.create ();
        open_ = true;
        l_pollable = Pollable.create (fun () -> 0);
      }
    in
    Pollable.set_level l.l_pollable (fun () ->
        if Queue.is_empty l.backlog then 0 else Pollable.pollin);
    Hashtbl.replace namespace path l;
    Ok l
  end

let listener_pollable l = l.l_pollable

let connect ~path =
  match Hashtbl.find_opt namespace path with
  | Some l when l.open_ ->
    let client, server = socketpair () in
    Queue.push server l.backlog;
    ignore (Ostd.Wait_queue.wake_one l.wq);
    Pollable.publish l.l_pollable Pollable.pollin;
    Ok client
  | Some _ | None -> Error Errno.econnrefused

let accept l =
  Ostd.Wait_queue.sleep_until l.wq (fun () -> not (Queue.is_empty l.backlog));
  Queue.pop l.backlog

let accept_opt l = if Queue.is_empty l.backlog then None else Some (Queue.pop l.backlog)

let close_listener l =
  l.open_ <- false;
  Hashtbl.remove namespace l.path
