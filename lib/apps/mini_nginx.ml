let port = 80

let setup_docroot c ~sizes =
  ignore (Libc.mkdir c "/tmp/www");
  List.iter
    (fun (name, bytes) ->
      let fd = Libc.openf c ("/tmp/www/" ^ name) ~flags:0o101 ~mode:0o644 in
      let chunk = Bytes.make (min bytes 65536) 'w' in
      let vaddr = Libc.ualloc c (Bytes.length chunk) in
      (Libc.raw c).Ostd.User.mem_write vaddr chunk;
      let written = ref 0 in
      while !written < bytes do
        let n = Libc.write c ~fd ~vaddr ~len:(min (Bytes.length chunk) (bytes - !written)) in
        if n <= 0 then written := bytes else written := !written + n
      done;
      ignore (Libc.close c fd))
    sizes

(* Request-line parsing plus access-log bookkeeping, in user cycles. *)
let per_request_user_work = 60000

let handle_conn c conn =
  ignore (Libc.set_nodelay c ~fd:conn);
  let req = Libc.read_str c ~fd:conn ~len:512 in
  Sim.Clock.charge per_request_user_work;
  let path =
    match String.split_on_char ' ' req with
    | "GET" :: p :: _ -> "/tmp/www" ^ p
    | _ -> ""
  in
  (* kspan request boundary: one span per HTTP request, from parse to
     the last sendfile. Host-level annotation — no syscall, no cycles. *)
  Sim.Span.annotate_begin ~cls:"http" ~name:(if path = "" then "bad" else path);
  (* open + fstat rather than stat-then-open: one path walk per request
     instead of two, and the size read is against the descriptor that
     sendfile will serve. *)
  let file = if path = "" then -1 else Libc.openf c path ~flags:0 ~mode:0 in
  (if file < 0 then
     ignore (Libc.write_str c ~fd:conn "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n")
   else
     match Libc.fstat c file with
     | Error _ ->
       ignore (Libc.write_str c ~fd:conn "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n");
       ignore (Libc.close c file)
     | Ok st ->
       let hdr =
         Printf.sprintf "HTTP/1.0 200 OK\r\nServer: mini-nginx\r\nContent-Length: %d\r\n\r\n"
           st.Aster.Abi.size
       in
       ignore (Libc.write_str c ~fd:conn hdr);
       let sent = ref 0 in
       while !sent < st.Aster.Abi.size do
         let n = Libc.sendfile c ~out_fd:conn ~in_fd:file ~count:(st.Aster.Abi.size - !sent) in
         if n <= 0 then sent := st.Aster.Abi.size else sent := !sent + n
       done;
       ignore (Libc.close c file));
  Sim.Span.annotate_end ();
  ignore (Libc.shutdown c ~fd:conn);
  ignore (Libc.close c conn)

(* Worker-pool size: like nginx's pre-forked workers, a fixed set of
   threads each running its own event loop over the shared listening
   socket. A serial accept-then-serve loop head-of-line blocks every
   queued connection behind one read(2) round trip; a thread per
   connection pays a clone per request. The pool does neither. *)
let workers = 8

(* Event-driven worker: each worker runs its own epoll instance over
   the shared non-blocking listener (nginx's architecture). A listener
   event is drained to EAGAIN with accept4; each accepted conn is
   registered EPOLLIN and, once its request line has arrived, served to
   completion — the blocking reads in [handle_conn] return immediately
   because readiness was already reported, and the close(2) inside
   unhooks the registration (EPOLLFREE). A shared self-pipe raises the
   stop flag in every worker once siblings exhaust the request quota. *)
let serve_epoll ~remaining ~stop_r ~stop_w sfd w =
  let ep = Libc.epoll_create1 w in
  ignore
    (Libc.epoll_ctl w ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:sfd ~events:Libc.epollin
       ~data:(Int64.of_int sfd));
  (* Self-pipe shutdown: the read end is level-triggered and never
     drained, so once the quota sinks to zero every worker's next
     epoll_wait reports it — no periodic timeout polling needed and
     workers block with timeout -1 in between. *)
  ignore
    (Libc.epoll_ctl w ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:stop_r ~events:Libc.epollin
       ~data:(Int64.of_int stop_r));
  let pending = ref 0 in
  let stopping = ref false in
  let continue = ref true in
  while !continue do
    if !stopping && !pending = 0 then continue := false
    else begin
      match Libc.epoll_wait w ~epfd:ep ~maxevents:32 ~timeout_ms:(-1) with
      | Error _ -> continue := false
      | Ok (_, evs) ->
        List.iter
          (fun (data, events) ->
            let fd = Int64.to_int data in
            if fd = stop_r then begin
              stopping := true;
              (* Drop the stop fd from this instance once seen: it is
                 level-ready forever (never drained), so keeping it
                 registered would make every further wait return
                 instantly — a busy spin that starves the very clients
                 whose data events the remaining conns are waiting on. *)
              ignore
                (Libc.epoll_ctl w ~epfd:ep ~op:Libc.epoll_ctl_del ~fd:stop_r ~events:0 ~data:0L)
            end
            else if fd = sfd then begin
              let more = ref true in
              while !more && !remaining > 0 do
                let conn = Libc.accept4 w ~fd:sfd ~flags:0 in
                if conn < 0 then more := false
                else begin
                  decr remaining;
                  incr pending;
                  if !remaining = 0 then ignore (Libc.write_str w ~fd:stop_w "q");
                  ignore
                    (Libc.epoll_ctl w ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:conn
                       ~events:Libc.epollin ~data:(Int64.of_int conn))
                end
              done
            end
            else if events land (Libc.epollin lor Libc.epollhup lor Libc.epollerr) <> 0
            then begin
              decr pending;
              (* [handle_conn] closes the conn, and close(2) removes it
                 from the interest list (EPOLLFREE) — no DEL syscall. *)
              handle_conn w fd
            end)
          evs
    end
  done;
  ignore (Libc.close w ep)

let server ~requests c =
  let sfd = Libc.socket c ~domain:2 ~typ:1 in
  ignore (Libc.bind_inet c ~fd:sfd ~port);
  ignore (Libc.listen c ~fd:sfd ~backlog:128);
  ignore (Libc.set_nonblock c ~fd:sfd);
  let stop_r, stop_w = Result.get_ok (Libc.pipe c) in
  (* Degenerate quota: raise the stop flag before anyone waits. *)
  if requests <= 0 then ignore (Libc.write_str c ~fd:stop_w "q");
  let remaining = ref requests in
  let live = ref (workers - 1) in
  for _ = 2 to workers do
    ignore
      (Libc.clone_thread c (fun uapi ->
           let w = Libc.make uapi in
           serve_epoll ~remaining ~stop_r ~stop_w sfd w;
           decr live;
           0))
  done;
  serve_epoll ~remaining ~stop_r ~stop_w sfd c;
  (* The process exits only after every worker has drained: exiting
     while siblings still stream responses would tear the sockets down
     under them. *)
  while !live > 0 do
    ignore (Libc.nanosleep_us c 50.)
  done;
  0

let spawn ~requests ~sizes () =
  Runner.spawn ~name:"mini-nginx" (fun c ->
      setup_docroot c ~sizes;
      server ~requests c)
