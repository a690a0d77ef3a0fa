type sock_kind = Inet_stream | Inet_dgram | Unix_stream

type sock_state =
  | S_unbound
  | S_tcp_listener of Tcp.listener
  | S_tcp_conn of Tcp.conn
  | S_udp of Udp.socket
  | S_unix_listener of Unix_sock.listener
  | S_unix_conn of Unix_sock.endpoint

type sock = {
  kind : sock_kind;
  mutable st : sock_state;
  mutable bport : int option;  (* bound inet port *)
  mutable upath : string option;  (* bound unix path *)
}

type desc =
  | Inode_file of Vfs.inode
  | Pipe of { ch : Channel.t; pb : Pollable.t; fifo : Vfs.inode option }
  | Socket of sock
  | Epoll of Epoll.t

type t = {
  mutable desc : desc;
  mutable pos : int;
  mutable flags : int;
  mutable refs : int;
  mutable wb_sample : int;
      (* errseq sample: writeback errors after this are this file's to
         observe at fsync, whoever else saw them first *)
}

let o_wronly = 1
let o_rdwr = 2
let o_nonblock = 0o4000
let o_append = 0o2000

(* The flags F_SETFL may change; the access mode is fixed at open. *)
let setfl_mask = o_append lor o_nonblock

(* FMODE_READ and FMODE_WRITE: what the access mode lets read(2) and
   write(2) do with the description. *)
let reads flags = flags land Vfs.o_accmode <> o_wronly
let writes flags = flags land Vfs.o_accmode <> 0
let readable f = reads f.flags
let writable f = writes f.flags

(* An open file description of an inode holds it open, and one of a
   channel holds the sides its access mode names. *)
let make desc ~flags =
  (match desc with
  | Inode_file i -> Vfs.opened i
  | Pipe { ch; pb; fifo } ->
    Option.iter Vfs.opened fifo;
    if reads flags then Channel.open_ ch Channel.Rd pb;
    if writes flags then Channel.open_ ch Channel.Wr pb
  | Socket _ | Epoll _ -> ());
  { desc; pos = 0; flags; refs = 1; wb_sample = Block.wb_errseq () }

let pipe ch ~fifo ~flags =
  let rd = reads flags and wr = writes flags in
  let level () =
    (if rd then Channel.level ch Channel.Rd else 0) lor if wr then Channel.level ch Channel.Wr else 0
  in
  make (Pipe { ch; pb = Pollable.create level; fifo }) ~flags

(* A FIFO's channel lives while the FIFO has an opener, as Linux's
   i_pipe does: an open after the last close finds it empty. *)
let fifo (i : Vfs.inode) ~flags =
  let ch = match i.Vfs.pipe with Some ch -> ch | None -> Channel.create Channel.Pipe in
  i.Vfs.pipe <- Some ch;
  pipe ch ~fifo:(Some i) ~flags

(* The established-TCP view of a descriptor, for paths that need the
   connection itself rather than the generic write entry point (the
   zero-copy sendfile dispatch pins page-cache frames into the send). *)
let tcp_conn_of f =
  match f.desc with
  | Socket { st = S_tcp_conn c; _ } -> Some c
  | Inode_file _ | Pipe _ | Socket _ | Epoll _ -> None

let get f = f.refs <- f.refs + 1

(* Last reference dropped. Beyond tearing the object down, [free] its
   pollable so every epoll interest list forgets the fd — Linux removes
   registrations when the file goes away (the EPOLLFREE path), so a
   plain close(2) is enough and no explicit EPOLL_CTL_DEL is owed. *)
let release f =
  match f.desc with
  | Inode_file i -> Vfs.closed i
  | Pipe { ch; pb; fifo } ->
    Pollable.free pb;
    if readable f then Channel.close ch Channel.Rd pb;
    if writable f then Channel.close ch Channel.Wr pb;
    Option.iter
      (fun (i : Vfs.inode) ->
        if Channel.openers ch = 0 then i.Vfs.pipe <- None;
        Vfs.closed i)
      fifo
  | Epoll e ->
    Pollable.free (Epoll.pollable e);
    Epoll.close e
  | Socket s -> (
    match s.st with
    | S_unbound -> ()
    | S_tcp_listener _ -> () (* engine keeps listeners; fine for our workloads *)
    | S_tcp_conn c ->
      Pollable.free (Tcp.pollable c);
      Tcp.close c
    | S_udp u ->
      Pollable.free (Udp.pollable u);
      Udp.close u
    | S_unix_listener l ->
      Pollable.free (Unix_sock.listener_pollable l);
      Unix_sock.close_listener l
    | S_unix_conn ep ->
      Pollable.free ep.Unix_sock.pollable;
      Unix_sock.close ep)

let put f =
  f.refs <- f.refs - 1;
  if f.refs = 0 then release f

module Table = struct
  type file = t

  type t = { files : (int, file) Hashtbl.t; mutable next_hint : int }

  let create () = { files = Hashtbl.create 16; next_hint = 0 }

  let clone t =
    let t' = { files = Hashtbl.copy t.files; next_hint = t.next_hint } in
    Hashtbl.iter (fun _ f -> get f) t'.files;
    t'

  let lookup t fd =
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.fd_lookup;
    Hashtbl.find_opt t.files fd

  let install t f =
    let rec first_free fd = if Hashtbl.mem t.files fd then first_free (fd + 1) else fd in
    let fd = first_free 0 in
    Hashtbl.replace t.files fd f;
    fd

  let install_at t fd f =
    (match Hashtbl.find_opt t.files fd with Some old -> put old | None -> ());
    Hashtbl.replace t.files fd f

  let close t fd =
    match Hashtbl.find_opt t.files fd with
    | None -> Error Errno.ebadf
    | Some f ->
      Hashtbl.remove t.files fd;
      put f;
      Ok ()

  let close_all t =
    Hashtbl.iter (fun _ f -> put f) t.files;
    Hashtbl.reset t.files

  let count t = Hashtbl.length t.files

  (* fdinfo iteration; no lookup cost — observability stays free. *)
  let fold t f acc = Hashtbl.fold f t.files acc
end
