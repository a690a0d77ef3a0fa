(* [reset] is Linux's sk_err for ECONNRESET, set by the peer's release
   and shared with it as its [peer_reset]. *)
type endpoint = {
  rx : Channel.t;
  tx : Channel.t;
  pollable : Pollable.t;
  reset : bool ref;
  peer_reset : bool ref;
}

(* Linux's unix_poll: the receive side is shut by our SHUT_RD, the
   peer's SHUT_WR or the peer's close, and the send side the other way
   round; a pending error is POLLERR. *)
let level rx tx reset () =
  let rx_shut = Channel.is_shut rx in
  (if Channel.queued rx > 0 || rx_shut then Pollable.pollin else 0)
  lor (if rx_shut then Pollable.pollrdhup else 0)
  lor (if rx_shut && Channel.is_shut tx then Pollable.pollhup else 0)
  lor (if !reset then Pollable.pollerr else 0)
  lor if Channel.full tx then 0 else Pollable.pollout

let endpoint rx tx reset peer_reset =
  let ep = { rx; tx; pollable = Pollable.create (level rx tx reset); reset; peer_reset } in
  Channel.open_ rx Channel.Rd ep.pollable;
  Channel.open_ tx Channel.Wr ep.pollable;
  ep

let socketpair () =
  let a2b = Channel.create Channel.Socket and b2a = Channel.create Channel.Socket in
  let a_reset = ref false and b_reset = ref false in
  let a = endpoint b2a a2b a_reset b_reset in
  (a, endpoint a2b b2a b_reset a_reset)

let shutdown ep ~rd ~wr =
  if wr then Channel.shut ep.tx Channel.Wr;
  if rd then Channel.shut ep.rx Channel.Rd

(* unix_stream_read_generic: a read that finds nothing queued answers a
   pending error, once, before end of stream; one that has already
   taken bytes leaves it for the next read. *)
let read ?nonblock ep ~first ~buf ~pos ~len =
  match Channel.read ?nonblock ep.rx ~buf ~pos ~len with
  | Ok 0 when first && !(ep.reset) ->
    ep.reset := false;
    Error Errno.econnreset
  | r -> r

(* unix_release_sock: the bytes the peer sent us go, which frees its
   send room; if there were any, or we were never accepted, the peer's
   error is ECONNRESET. Then neither side can send. *)
let release ep ~embryo =
  if Channel.discard ep.rx > 0 || embryo then ep.peer_reset := true;
  Channel.close ep.tx Channel.Wr ep.pollable;
  Channel.close ep.rx Channel.Rd ep.pollable

let close ep = release ep ~embryo:false

(* --- Listener namespace --- *)

type listener = {
  path : string;
  backlog : endpoint Queue.t;
  wq : Ostd.Wait_queue.t;
  l_pollable : Pollable.t;
}

let namespace : (string, listener) Hashtbl.t = Hashtbl.create 16

let reset_namespace () = Hashtbl.reset namespace

let listen ~path =
  if Hashtbl.mem namespace path then Error Errno.eaddrinuse
  else begin
    let backlog = Queue.create () in
    let l =
      {
        path;
        backlog;
        wq = Ostd.Wait_queue.create ();
        l_pollable =
          Pollable.create (fun () -> if Queue.is_empty backlog then 0 else Pollable.pollin);
      }
    in
    Hashtbl.replace namespace path l;
    Ok l
  end

let listener_pollable l = l.l_pollable

let connect ~path =
  match Hashtbl.find_opt namespace path with
  | Some l ->
    let client, server = socketpair () in
    Queue.push server l.backlog;
    ignore (Ostd.Wait_queue.wake_one l.wq);
    Pollable.publish l.l_pollable Pollable.pollin;
    Ok client
  | None -> Error Errno.econnrefused

let accept l =
  Ostd.Wait_queue.sleep_until l.wq (fun () -> not (Queue.is_empty l.backlog));
  Queue.pop l.backlog

let accept_opt l = if Queue.is_empty l.backlog then None else Some (Queue.pop l.backlog)

(* A connection still in the backlog is released as an embryo, as
   Linux's unix_release_sock does: its client reads ECONNRESET, then end
   of stream. *)
let close_listener l =
  Hashtbl.remove namespace l.path;
  Queue.iter (release ~embryo:true) l.backlog;
  Queue.clear l.backlog
