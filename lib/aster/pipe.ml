type t = {
  buf : Bytes.t;
  mutable head : int; (* next byte to read *)
  mutable count : int;
  mutable read_open : bool;
  mutable write_open : bool;
  readers : Ostd.Wait_queue.t;
  writers : Ostd.Wait_queue.t;
  (* Readiness seam: one pollable per end. The read end levels POLLIN
     on buffered bytes and POLLHUP on writer close (EOF); the write
     end levels POLLOUT on free space and POLLERR on reader close. *)
  rd_pollable : Pollable.t;
  wr_pollable : Pollable.t;
}

let create () =
  let cap = (Sim.Profile.get ()).Sim.Profile.pipe_buffer in
  let t =
    {
      buf = Bytes.create cap;
      head = 0;
      count = 0;
      read_open = true;
      write_open = true;
      readers = Ostd.Wait_queue.create ();
      writers = Ostd.Wait_queue.create ();
      rd_pollable = Pollable.create (fun () -> 0);
      wr_pollable = Pollable.create (fun () -> 0);
    }
  in
  Pollable.set_level t.rd_pollable (fun () ->
      (if t.count > 0 then Pollable.pollin else 0)
      lor if t.write_open then 0 else Pollable.pollhup);
  Pollable.set_level t.wr_pollable (fun () ->
      (if t.count < cap then Pollable.pollout else 0)
      lor if t.read_open then 0 else Pollable.pollerr);
  t

let capacity t = Bytes.length t.buf

let available t = t.count

let rd_pollable t = t.rd_pollable
let wr_pollable t = t.wr_pollable

let close_read t =
  t.read_open <- false;
  ignore (Ostd.Wait_queue.wake_all t.writers);
  Pollable.publish t.wr_pollable Pollable.pollerr

let close_write t =
  t.write_open <- false;
  ignore (Ostd.Wait_queue.wake_all t.readers);
  Pollable.publish t.rd_pollable (Pollable.pollin lor Pollable.pollhup)

let readable t = t.count > 0 || not t.write_open

let writable t = t.count < capacity t || not t.read_open

let pop t out pos len =
  let n = min len t.count in
  let cap = capacity t in
  let first = min n (cap - t.head) in
  Bytes.blit t.buf t.head out pos first;
  Bytes.blit t.buf 0 out (pos + first) (n - first);
  t.head <- (t.head + n) mod cap;
  t.count <- t.count - n;
  n

let push t src pos len =
  let cap = capacity t in
  let n = min len (cap - t.count) in
  let tail = (t.head + t.count) mod cap in
  let first = min n (cap - tail) in
  Bytes.blit src pos t.buf tail first;
  Bytes.blit src (pos + first) t.buf 0 (n - first);
  t.count <- t.count + n;
  n

let charge_op _len = Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.pipe_op

let read ?(nonblock = false) t ~buf ~pos ~len =
  if not t.read_open then Error Errno.ebadf
  else if nonblock && t.count = 0 && t.write_open then Error Errno.eagain
  else begin
    Ostd.Wait_queue.sleep_until t.readers (fun () -> t.count > 0 || not t.write_open);
    if t.count = 0 then Ok 0 (* writer closed *)
    else if len = 0 then Error Errno.efault
    else begin
      let n = pop t buf pos len in
      charge_op n;
      ignore (Ostd.Wait_queue.wake_one t.writers);
      Pollable.publish t.wr_pollable Pollable.pollout;
      Ok n
    end
  end

let write ?(nonblock = false) t ~buf ~pos ~len =
  if not t.write_open then Error Errno.ebadf
  else if nonblock then begin
    (* O_NONBLOCK: take what fits right now; full + reader alive is
       EAGAIN, reader gone is EPIPE. *)
    if not t.read_open then Error Errno.epipe
    else begin
      let n = push t buf pos len in
      if n = 0 && len > 0 then Error Errno.eagain
      else begin
        charge_op n;
        ignore (Ostd.Wait_queue.wake_one t.readers);
        Pollable.publish t.rd_pollable Pollable.pollin;
        Ok n
      end
    end
  end
  else begin
    let written = ref 0 in
    let result = ref (Ok 0) in
    (try
       while !written < len do
         Ostd.Wait_queue.sleep_until t.writers (fun () ->
             t.count < capacity t || not t.read_open);
         if not t.read_open then begin
           result := Error Errno.epipe;
           raise Stdlib.Exit
         end;
         let n = push t buf (pos + !written) (len - !written) in
         charge_op n;
         written := !written + n;
         ignore (Ostd.Wait_queue.wake_one t.readers);
         Pollable.publish t.rd_pollable Pollable.pollin
       done
     with Stdlib.Exit -> ());
    match !result with
    | Error _ as e when !written = 0 -> e
    | _ -> Ok !written
  end
