type kind = Pipe | Socket

type side = Rd | Wr

(* One side: its openers, its shut flag, its waiters and the pollables
   of its openers, in open order. *)
type end_ = {
  mutable openers : int;
  mutable shut : bool;
  wq : Ostd.Wait_queue.t;
  mutable pbs : Pollable.t list;
}

type t = {
  kind : kind;
  buf : Bytes.t;
  mutable head : int; (* next byte to read *)
  mutable count : int;
  rd : end_;
  wr : end_;
}

let end_ () = { openers = 0; shut = false; wq = Ostd.Wait_queue.create (); pbs = [] }

let create kind =
  let buf = Bytes.create (Sim.Profile.get ()).Sim.Profile.ipc_buffer in
  { kind; buf; head = 0; count = 0; rd = end_ (); wr = end_ () }

let cap t = Bytes.length t.buf
let queued t = t.count
let full t = t.count >= cap t
let openers t = t.rd.openers + t.wr.openers
let is_shut t = t.rd.shut || t.wr.shut
let end_of t = function Rd -> t.rd | Wr -> t.wr

let rec publish edge = function
  | [] -> ()
  | p :: rest ->
    Pollable.publish p edge;
    publish edge rest

(* A shut turns on a reader's POLLIN (end of stream), POLLRDHUP and
   POLLHUP, and a writer's POLLERR. *)
let hup_edge = Pollable.(pollin lor pollerr lor pollhup lor pollrdhup)

let shut t side =
  (end_of t side).shut <- true;
  ignore (Ostd.Wait_queue.wake_all t.rd.wq);
  ignore (Ostd.Wait_queue.wake_all t.wr.wq);
  publish hup_edge t.rd.pbs;
  publish hup_edge t.wr.pbs

(* A side is open from its first opener to its last: a side that never
   had one is not shut, so a FIFO reader that opened first waits for
   its writer in read, where Linux waits in open. *)
let open_ t side p =
  let e = end_of t side in
  e.openers <- e.openers + 1;
  e.shut <- false;
  e.pbs <- e.pbs @ [ p ]

let close t side p =
  let e = end_of t side in
  e.openers <- e.openers - 1;
  e.pbs <- List.filter (fun q -> q != p) e.pbs;
  if e.openers = 0 then shut t side

let level t = function
  | Rd -> (if t.count > 0 then Pollable.pollin else 0) lor if is_shut t then Pollable.pollhup else 0
  | Wr -> (if full t then 0 else Pollable.pollout) lor if is_shut t then Pollable.pollerr else 0

let pop t out pos len =
  let n = min len t.count in
  let first = min n (cap t - t.head) in
  Bytes.blit t.buf t.head out pos first;
  Bytes.blit t.buf 0 out (pos + first) (n - first);
  t.head <- (t.head + n) mod cap t;
  t.count <- t.count - n;
  n

let push t src pos len =
  let n = min len (cap t - t.count) in
  let tail = (t.head + t.count) mod cap t in
  let first = min n (cap t - tail) in
  Bytes.blit src pos t.buf tail first;
  Bytes.blit src (pos + first) t.buf 0 (n - first);
  t.count <- t.count + n;
  n

let discard t =
  let n = t.count in
  t.head <- 0;
  t.count <- 0;
  if n > 0 then begin
    ignore (Ostd.Wait_queue.wake_all t.wr.wq);
    publish Pollable.pollout t.wr.pbs
  end;
  n

let charge_op t len =
  match t.kind with
  | Pipe -> Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.pipe_op
  | Socket ->
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.unix_op;
    (* skb-based implementations copy user->skb and skb->user; the ring
       moves bytes once (the syscall layer's user copy). *)
    if (Sim.Profile.get ()).Sim.Profile.unix_double_copy then Sim.Cost.charge_user_copy len

let read ?(nonblock = false) t ~buf ~pos ~len =
  if nonblock && t.count = 0 && not (is_shut t) then Error Errno.eagain
  else begin
    Ostd.Wait_queue.sleep_until t.rd.wq (fun () -> t.count > 0 || is_shut t);
    if t.count = 0 then Ok 0
    else if len = 0 then Error Errno.efault
    else begin
      let n = pop t buf pos len in
      charge_op t n;
      ignore (Ostd.Wait_queue.wake_one t.wr.wq);
      publish Pollable.pollout t.wr.pbs;
      Ok n
    end
  end

let write ?(nonblock = false) t ~buf ~pos ~len =
  if is_shut t then Error Errno.epipe
  else if nonblock && full t then Error Errno.eagain
  else begin
    let written = ref 0 in
    while !written < len && (not (is_shut t)) && not (nonblock && full t) do
      Ostd.Wait_queue.sleep_until t.wr.wq (fun () -> (not (full t)) || is_shut t);
      if not (is_shut t) then begin
        let n = push t buf (pos + !written) (len - !written) in
        charge_op t n;
        written := !written + n;
        ignore (Ostd.Wait_queue.wake_one t.rd.wq);
        publish Pollable.pollin t.rd.pbs
      end
    done;
    if !written = 0 && is_shut t then Error Errno.epipe else Ok !written
  end
