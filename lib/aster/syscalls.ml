module N = Syscall_nr

let net : (Netstack.t * Tcp.engine * Udp.engine) option ref = ref None

let init_net stack tcp udp = net := Some (stack, tcp, udp)

let the_net () =
  match !net with
  | Some n -> n
  | None -> Ostd.Panic.panic "Syscalls: network engines not initialised"

(* --- User memory access with kernel-side fault handling --- *)

let vm proc = Mm.vmspace (Process.mm proc)

(* Copy [len] bytes in to the front of [buf], retrying the whole copy
   after each fault that demand paging resolves. Returns the count
   copied: [len], or the bytes before the first fault it cannot
   resolve. *)
let rec user_read_into proc ~vaddr ~buf ~len =
  match Ostd.Vmspace.copy_out (vm proc) ~vaddr ~buf ~pos:0 ~len with
  | Ok () -> len
  | Error { Ostd.Vmspace.vaddr = fa; write } ->
    if Mm.handle_fault (Process.mm proc) ~vaddr:fa ~write then user_read_into proc ~vaddr ~buf ~len
    else fa - vaddr

(* A fixed-size struct in from user memory: all of it or EFAULT. *)
let user_read proc ~vaddr ~len =
  let buf = Bytes.create len in
  if user_read_into proc ~vaddr ~buf ~len = len then Ok buf else Error Errno.efault

(* Copy the first [len] bytes of [buf] out to user memory, retrying
   after each fault that demand paging resolves. Returns the count
   copied: [len], or the bytes before the first fault it cannot
   resolve. *)
let rec user_write_upto proc ~vaddr buf ~len =
  match Ostd.Vmspace.copy_in (vm proc) ~vaddr ~buf ~pos:0 ~len with
  | Ok () -> len
  | Error { Ostd.Vmspace.vaddr = fa; write } ->
    if Mm.handle_fault (Process.mm proc) ~vaddr:fa ~write then user_write_upto proc ~vaddr buf ~len
    else fa - vaddr

(* A fixed-size struct out to user memory: all of it or EFAULT. *)
let user_write proc ~vaddr buf =
  let len = Bytes.length buf in
  if user_write_upto proc ~vaddr buf ~len = len then Ok () else Error Errno.efault

(* --- One reused kernel staging buffer ---

   Every data syscall moves its bytes through this one buffer, at most
   [stage_size] at a time, instead of a host buffer per call. A call
   holds it until it returns, on every exit, a contained
   [Service_failure] included, and may sleep holding it: inside an fs
   op (at the jbd commit gate, on a cold block read) or on a pipe or
   socket. A call that finds it held allocates a buffer of its own, so
   two calls never share it and memory stays at one buffer. The holder
   is the task, not a flag: a task killed asleep is never resumed, so
   it never gives the buffer back, and a dead holder's buffer is free.
   64 KiB is the largest count any in-tree app issues (fio, lmbench and
   lmdd), so each of their calls is one chunk. *)
let stage_size = 64 * 1024

let stage = Bytes.create stage_size

(* The task holding the buffer, [None] when free. A call outside any
   task cannot sleep, so it holds the buffer as [None] and nothing else
   runs before it returns. *)
let stage_holder : Ostd.Task.t option ref = ref None

let staging_busy () =
  match !stage_holder with Some t -> not (Ostd.Task.is_dead t) | None -> false

(* The staging buffer, or a buffer of [len <= stage_size] bytes of
   the call's own when a live task holds it. *)
let stage_take len =
  if staging_busy () then Bytes.create len
  else begin
    stage_holder := Ostd.Task.current_opt ();
    stage
  end

let stage_release buf = if buf == stage then stage_holder := None

(* Run [f] on [stage_take len], released on every exit. *)
let with_stage len f =
  let buf = stage_take len in
  match f buf with
  | r ->
    stage_release buf;
    r
  | exception e ->
    stage_release buf;
    raise e

(* --- The two copy loops across the user boundary ---

   [copy_out] moves up to [len] bytes an object produces out to user
   memory at [vaddr]: [fill buf ~off ~len] puts the object's next at
   most [len] bytes, the call's bytes from offset [off], at the front
   of [buf] and says how many. [copy_in] moves up to [len] bytes of
   user memory at [vaddr] in: [drain buf ~off ~len] hands the object
   the [len] bytes at the front of [buf], the call's bytes from offset
   [off], and says how many it took. Both go one staging-buffer chunk
   at a time and make at least one object call, a zero count included,
   so a count of at most [stage_size] is one object call and one user
   copy. Both stop at a short chunk, at an error, or at the first fault
   demand paging cannot resolve, and return the count that reached its
   destination, or the errno (EFAULT for a fault) when that is nothing,
   as Linux's copy_to_iter, filemap_read and generic_perform_write do.

   A [stream] object (a pipe, a TCP or a unix stream socket) keeps
   what its reader did not take, as Linux's pipe_read, tcp_recvmsg and
   unix_stream_read_generic do. So [copy_out] asks it, chunk by chunk,
   for no more than the destination can receive ([Mm.writable_prefix]),
   and a later chunk with no byte reachable ends the call. A first chunk
   with none asks the object for zero bytes: it answers as Linux's
   read does when its copy faults, -EAGAIN if it would block, 0 at end
   of stream, and otherwise, after waiting for data, -EFAULT with its
   bytes kept. A stream read of zero bytes returns 0 at once. Files and
   datagrams keep the plain loop: a file position moves only by the
   bytes that landed, and Linux drops a datagram whose copy faults. *)

let rec copy_out_chunks proc ~stream ~vaddr ~len fill buf copied =
  let want = Int.min stage_size (len - copied) in
  let room =
    if stream then Mm.writable_prefix (Process.mm proc) ~vaddr:(vaddr + copied) ~len:want
    else want
  in
  if room = 0 && copied > 0 then Ok copied
  else
    match fill buf ~off:copied ~len:room with
    | Error e -> if copied > 0 then Ok copied else Error e
    | Ok n ->
      let c = user_write_upto proc ~vaddr:(vaddr + copied) buf ~len:n in
      if c = want && copied + c < len then
        copy_out_chunks proc ~stream ~vaddr ~len fill buf (copied + c)
      else if copied + c = 0 && n > 0 then Error Errno.efault
      else Ok (copied + c)

(* The loops take their state as arguments, not through a closure, so
   a call allocates no closure beyond its fill or drain. *)
let copy_out proc ~stream ~vaddr ~len fill =
  if stream && len = 0 then Ok 0
  else begin
    let buf = stage_take (Int.min len stage_size) in
    match copy_out_chunks proc ~stream ~vaddr ~len fill buf 0 with
    | r ->
      stage_release buf;
      r
    | exception e ->
      stage_release buf;
      raise e
  end

let rec copy_in_chunks proc ~vaddr ~len drain buf moved =
  let want = Int.min stage_size (len - moved) in
  let c = user_read_into proc ~vaddr:(vaddr + moved) ~buf ~len:want in
  if c = 0 && want > 0 then if moved > 0 then Ok moved else Error Errno.efault
  else
    match drain buf ~off:moved ~len:c with
    | Error e -> if moved > 0 then Ok moved else Error e
    | Ok n ->
      if n = want && moved + n < len then copy_in_chunks proc ~vaddr ~len drain buf (moved + n)
      else Ok (moved + n)

let copy_in proc ~vaddr ~len drain =
  let buf = stage_take (Int.min len stage_size) in
  match copy_in_chunks proc ~vaddr ~len drain buf 0 with
  | r ->
    stage_release buf;
    r
  | exception e ->
    stage_release buf;
    raise e

let read_str proc vaddr =
  (* NUL-terminated, capped at a page, copied in 64-byte chunks. A chunk
     that faults across a page boundary is re-read only up to the
     boundary: a string whose NUL lies just before an unmapped page is
     still valid. *)
  let rec scan acc off len =
    if off >= 4096 then Error Errno.einval
    else
      let va = vaddr + off in
      match user_read proc ~vaddr:va ~len with
      | Error e ->
        let to_boundary = 4096 - (va land 4095) in
        if to_boundary < len then scan acc off to_boundary else Error e
      | Ok chunk -> (
        match Bytes.index_opt chunk '\000' with
        | Some i -> Ok (acc ^ Bytes.sub_string chunk 0 i)
        | None ->
          let off = off + Bytes.length chunk in
          scan (acc ^ Bytes.to_string chunk) off (min 64 (4096 - off)))
  in
  scan "" 0 64

let read_str_array proc vaddr =
  (* NULL-terminated array of string pointers. *)
  let rec go i acc =
    if i > 64 then Ok (List.rev acc)
    else
      match user_read proc ~vaddr:(vaddr + (8 * i)) ~len:8 with
      | Error e -> Error e
      | Ok b -> (
        let p = Int64.to_int (Bytes.get_int64_le b 0) in
        if p = 0 then Ok (List.rev acc)
        else
          match read_str proc p with
          | Error e -> Error e
          | Ok s -> go (i + 1) (s :: acc))
  in
  if vaddr = 0 then Ok [] else go 0 []

(* --- Result plumbing: handlers return (int64, errno) results --- *)

let ok n = Ok (Int64.of_int n)
let ok64 v = Ok v
let err e = Error e

let lift = function Ok v -> ok v | Error e -> err e

let file_of proc fd =
  match File.Table.lookup (Process.fdt proc) (Int64.to_int fd) with
  | Some f -> Ok f
  | None -> Error Errno.ebadf

(* The fd layer's access-mode rules, where the descriptor is looked
   up: reading needs FMODE_READ and writing FMODE_WRITE (vfs_read,
   vfs_write), else -EBADF. *)
let file_for_read proc fd =
  match file_of proc fd with Ok f when not (File.readable f) -> Error Errno.ebadf | r -> r

let file_for_write proc fd =
  match file_of proc fd with Ok f when not (File.writable f) -> Error Errno.ebadf | r -> r

let int_arg (args : int64 array) i = Int64.to_int args.(i)

(* Linux rejects a negative count, offset or length with EINVAL before
   it touches the file (rw_verify_area, ksys_pread64, do_sys_ftruncate,
   import_iovec); here one would reach [Bytes.create] or OSTD's range
   checks. [pos] is 0 for calls without an offset. Charges nothing. *)
let invalid_range len pos = len < 0 || pos < 0

(* Linux's MAX_RW_COUNT: rw_verify_area clamps every read and write
   count to this many bytes. *)
let max_rw_count = 0x7ffff000

let rw_count args = Int.min (int_arg args 2) max_rw_count

(* The largest UDP payload an IPv4 datagram carries: 65,535 less the
   IP and UDP headers. A longer sendto fails with EMSGSIZE before any
   copy. *)
let udp_max_payload = 65_507

(* --- read/write on each file flavour --- *)

(* Read up to [len] bytes of [inode] at [pos] out to user memory. The
   chunks after the first read at pos > 0, so procfs serves them from
   the snapshot it took at offset 0. *)
let read_inode proc (inode : Vfs.inode) ~pos ~vaddr ~len =
  if inode.Vfs.kind = Vfs.Dir then Error Errno.eisdir
  else
    copy_out proc ~stream:false ~vaddr ~len (fun buf ~off ~len ->
        inode.Vfs.ops.Vfs.read inode ~pos:(pos + off) ~buf ~boff:0 ~len)

(* Read up to [len] bytes from [f] into user memory at [vaddr]. The
   file position advances by the bytes that reached user memory. A
   stream read waits, unless [f] is O_NONBLOCK or [more] says the
   calling syscall has already read bytes, for its first chunk only: a
   later chunk that finds nothing ends the call with the count so far.
   A datagram is one chunk, since no UDP payload fills one. *)
let do_read_desc ~more proc (f : File.t) ~vaddr ~len =
  let nonblock = more || f.File.flags land File.o_nonblock <> 0 in
  match f.File.desc with
  | File.Inode_file inode -> (
    Vfs.touch_atime inode;
    match read_inode proc inode ~pos:f.File.pos ~vaddr ~len with
    | Ok n ->
      f.File.pos <- f.File.pos + n;
      ok n
    | Error e -> err e)
  | File.Pipe { ch; _ } ->
    lift
      (copy_out proc ~stream:true ~vaddr ~len (fun buf ~off ~len ->
           Channel.read ~nonblock:(nonblock || off > 0) ch ~buf ~pos:0 ~len))
  | File.Epoll _ -> err Errno.einval
  | File.Socket s -> (
    match s.File.st with
    | File.S_tcp_conn c ->
      lift
        (copy_out proc ~stream:true ~vaddr ~len (fun buf ~off ~len ->
             Tcp.recv ~nonblock:(nonblock || off > 0) c ~buf ~pos:0 ~len))
    | File.S_unix_conn ep ->
      lift
        (copy_out proc ~stream:true ~vaddr ~len (fun buf ~off ~len ->
             Unix_sock.read ~nonblock:(nonblock || off > 0) ep ~first:(off = 0 && not more) ~buf
               ~pos:0 ~len))
    | File.S_udp u ->
      lift
        (copy_out proc ~stream:false ~vaddr ~len (fun buf ~off:_ ~len ->
             Result.map (fun (n, _, _) -> n) (Udp.recvfrom ~nonblock u ~buf ~pos:0 ~len)))
    | _ -> err Errno.enotconn)

(* Hand the write op of [f] the first [len] bytes of [buf]: each chunk
   of a [copy_in], and each bounce chunk of sendfile. A regular file's
   position advances by the bytes written. *)
let do_write_desc (f : File.t) buf ~len =
  let nonblock = f.File.flags land File.o_nonblock <> 0 in
  match f.File.desc with
  | File.Inode_file inode -> (
    let pos = if f.File.flags land File.o_append <> 0 then inode.Vfs.size else f.File.pos in
    match inode.Vfs.ops.Vfs.write inode ~pos ~buf ~boff:0 ~len with
    | Ok n ->
      f.File.pos <- pos + n;
      Ok n
    | Error e -> Error e)
  | File.Pipe { ch; _ } -> Channel.write ~nonblock ch ~buf ~pos:0 ~len
  | File.Epoll _ -> Error Errno.einval
  | File.Socket s -> (
    match s.File.st with
    | File.S_tcp_conn c -> Tcp.send ~nonblock c ~buf ~pos:0 ~len
    | File.S_unix_conn ep -> Channel.write ~nonblock ep.Unix_sock.tx ~buf ~pos:0 ~len
    | _ -> Error Errno.enotconn)

(* --- Individual syscalls --- *)

let read_fd ~more proc args =
  match file_for_read proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) 0 -> err Errno.einval
  | Ok f -> do_read_desc ~more proc f ~vaddr:(int_arg args 1) ~len:(rw_count args)

let sys_read proc args = read_fd ~more:false proc args

let sys_write proc args =
  match file_for_write proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) 0 -> err Errno.einval
  | Ok f ->
    let len = rw_count args in
    Strace.record_size ~nr:N.write ~size:len;
    lift
      (copy_in proc ~vaddr:(int_arg args 1) ~len (fun buf ~off:_ ~len -> do_write_desc f buf ~len))

let sys_pread proc args =
  match file_for_read proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) (int_arg args 3) -> err Errno.einval
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode ->
      lift
        (read_inode proc inode ~pos:(int_arg args 3) ~vaddr:(int_arg args 1) ~len:(rw_count args))
    | _ -> err Errno.espipe)

(* An O_APPEND descriptor appends whatever the offset, as Linux's
   pwrite does (pwrite(2), BUGS). *)
let sys_pwrite proc args =
  match file_for_write proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) (int_arg args 3) -> err Errno.einval
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode ->
      let len = rw_count args in
      let pos = if f.File.flags land File.o_append <> 0 then inode.Vfs.size else int_arg args 3 in
      Strace.record_size ~nr:N.pwrite64 ~size:len;
      lift
        (copy_in proc ~vaddr:(int_arg args 1) ~len (fun buf ~off ~len ->
             inode.Vfs.ops.Vfs.write inode ~pos:(pos + off) ~buf ~boff:0 ~len))
    | _ -> err Errno.espipe)

let iovec_list proc vaddr count =
  let rec go i acc =
    if i >= count then Ok (List.rev acc)
    else
      match user_read proc ~vaddr:(vaddr + (16 * i)) ~len:16 with
      | Error e -> Error e
      | Ok b ->
        go (i + 1)
          ((Int64.to_int (Bytes.get_int64_le b 0), Int64.to_int (Bytes.get_int64_le b 8)) :: acc)
  in
  (* UIO_MAXIOV *)
  if invalid_range count 0 || count > 1024 then Error Errno.einval else go 0 []

(* readv is one read, as on Linux: it may wait only while it has read
   nothing, so an iovec after bytes have arrived takes what is queued,
   and EAGAIN ends the call with the count so far. *)
let sys_readv proc args =
  match iovec_list proc (int_arg args 1) (int_arg args 2) with
  | Error e -> err e
  | Ok iovs ->
    let rec go total = function
      | [] -> ok total
      | (base, len) :: rest -> (
        let regs = [| args.(0); Int64.of_int base; Int64.of_int len |] in
        match read_fd ~more:(total > 0) proc regs with
        | Ok n when Int64.to_int n = len -> go (total + len) rest
        | Ok n -> ok (total + Int64.to_int n)
        | Error e -> if total > 0 then ok total else err e)
    in
    go 0 iovs

let sys_writev proc args =
  match iovec_list proc (int_arg args 1) (int_arg args 2) with
  | Error e -> err e
  | Ok iovs ->
    let total = ref 0 in
    let rec go = function
      | [] -> ok !total
      | (base, len) :: rest -> (
        match sys_write proc [| args.(0); Int64.of_int base; Int64.of_int len |] with
        | Ok n ->
          total := !total + Int64.to_int n;
          go rest
        | Error e -> if !total > 0 then ok !total else err e)
    in
    go iovs

let do_open proc path flags mode =
  match
    Vfs.open_ ~cwd:(Process.cwd proc) path ~flags ~mode:(mode land lnot (Process.umask proc))
  with
  | Error e -> err e
  | Ok inode ->
    let f =
      if inode.Vfs.kind = Vfs.Fifo then File.fifo inode ~flags
      else File.make (File.Inode_file inode) ~flags
    in
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.open_misc;
    ok (File.Table.install (Process.fdt proc) f)

let sys_open proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> do_open proc path (int_arg args 1) (int_arg args 2)

let sys_openat proc args =
  (* Only AT_FDCWD-style resolution: dirfd is ignored for absolute and
     cwd-relative paths, which covers our workloads. *)
  match read_str proc (int_arg args 1) with
  | Error e -> err e
  | Ok path -> do_open proc path (int_arg args 2) (int_arg args 3)

let sys_close proc args = lift (Result.map (fun () -> 0) (File.Table.close (Process.fdt proc) (int_arg args 0)))

let sys_lseek proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode ->
      let off = int_arg args 1 in
      let newpos =
        match int_arg args 2 with
        | 0 -> off (* SEEK_SET *)
        | 1 -> f.File.pos + off
        | 2 -> inode.Vfs.size + off
        | _ -> -1
      in
      if newpos < 0 then err Errno.einval
      else begin
        f.File.pos <- newpos;
        ok newpos
      end
    | _ -> err Errno.espipe)

let stat_of_inode (inode : Vfs.inode) =
  {
    Abi.ino = inode.Vfs.ino;
    size = inode.Vfs.size;
    mode = inode.Vfs.mode;
    nlink = inode.Vfs.nlink;
    kind = Abi.kind_code inode.Vfs.kind;
    mtime_ns = Int64.of_int inode.Vfs.mtime_ns;
  }

let write_stat proc vaddr inode =
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.stat_fill;
  match user_write proc ~vaddr (Abi.encode_stat (stat_of_inode inode)) with
  | Ok () -> ok 0
  | Error e -> err e

let sys_stat proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok { Vfs.inode; _ } -> write_stat proc (int_arg args 1) inode
    | Error e -> err e)

let sys_fstat proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> write_stat proc (int_arg args 1) inode
    | _ ->
      (* Sockets and pipes: synthesize a minimal stat. *)
      let fake =
        { Abi.ino = 0; size = 0; mode = 0o600; nlink = 1; kind = 12; mtime_ns = 0L }
      in
      (match user_write proc ~vaddr:(int_arg args 1) (Abi.encode_stat fake) with
      | Ok () -> ok 0
      | Error e -> err e))

let sys_newfstatat proc args =
  match read_str proc (int_arg args 1) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok { Vfs.inode; _ } -> write_stat proc (int_arg args 2) inode
    | Error e -> err e)

let sys_access proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok _ -> ok 0
    | Error e -> err e)

let sys_pipe2 proc args =
  let ch = Channel.create Channel.Pipe in
  let fdt = Process.fdt proc in
  let rfd = File.Table.install fdt (File.pipe ch ~fifo:None ~flags:0) in
  let wfd = File.Table.install fdt (File.pipe ch ~fifo:None ~flags:File.o_wronly) in
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int rfd);
  Bytes.set_int32_le b 4 (Int32.of_int wfd);
  match user_write proc ~vaddr:(int_arg args 0) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_dup proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f ->
    File.get f;
    ok (File.Table.install (Process.fdt proc) f)

let sys_dup2 proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f ->
    File.get f;
    File.Table.install_at (Process.fdt proc) (int_arg args 1) f;
    ok (int_arg args 1)

let sys_fcntl proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match int_arg args 1 with
    | 0 (* F_DUPFD *) ->
      File.get f;
      ok (File.Table.install (Process.fdt proc) f)
    | 3 (* F_GETFL *) -> ok f.File.flags
    | 4 (* F_SETFL *) ->
      f.File.flags <- (f.File.flags land lnot File.setfl_mask) lor (int_arg args 2 land File.setfl_mask);
      ok 0
    | _ -> ok 0)

let sys_mmap proc args =
  (* Anonymous private mappings only (what the workloads use). *)
  lift (Mm.do_mmap (Process.mm proc) ~len:(int_arg args 1))

let sys_munmap proc args =
  match Mm.do_munmap (Process.mm proc) ~addr:(int_arg args 0) ~len:(int_arg args 1) with
  | Ok () -> ok 0
  | Error e -> err e

let sys_mprotect proc args =
  let writable = int_arg args 2 land 2 <> 0 in
  match Mm.do_mprotect (Process.mm proc) ~addr:(int_arg args 0) ~len:(int_arg args 1) ~writable with
  | Ok () -> ok 0
  | Error e -> err e

let sys_brk proc args = ok (Mm.do_brk (Process.mm proc) (int_arg args 0))

(* The sleep request at [vaddr] in microseconds, or its errno: EFAULT
   when unreadable, EINVAL for a negative second count or a nanosecond
   count outside [0, 999,999,999] (Linux's [timespec64_valid]). *)
let sleep_request proc vaddr =
  match user_read proc ~vaddr ~len:16 with
  | Error e -> Error e
  | Ok b ->
    let sec, nsec = Abi.decode_timespec b in
    if sec < 0L || nsec < 0L || nsec > 999_999_999L then Error Errno.einval
    else Ok ((Int64.to_float sec *. 1e6) +. (Int64.to_float nsec /. 1e3))

(* A valid request can still outlast the virtual clock: sleeps are
   capped at about 30 years. *)
let sleep_for us = Ostd.Task.sleep_us (Float.min us 1e15)

let sys_nanosleep proc args =
  match sleep_request proc (int_arg args 0) with
  | Error e -> err e
  | Ok us ->
    sleep_for us;
    ok 0

let timer_abstime = 1

(* clock_nanosleep(clockid, flags, request, remain) on the realtime (0)
   and monotonic (1) clocks; any other clock is EINVAL. With
   TIMER_ABSTIME the request is a time on that clock to sleep until. *)
let sys_clock_nanosleep proc args =
  let clk = int_arg args 0 in
  if clk <> 0 && clk <> 1 then err Errno.einval
  else
    match sleep_request proc (int_arg args 2) with
    | Error e -> err e
    | Ok us ->
      (if int_arg args 1 land timer_abstime = 0 then sleep_for us
       else
         let now = if clk = 1 then Ktime.monotonic_ns () else Ktime.realtime_ns () in
         let left = us -. (float_of_int now /. 1e3) in
         if left > 0. then sleep_for left);
      ok 0

let sys_getdents proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) 0 -> err Errno.einval
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode when inode.Vfs.kind = Vfs.Dir -> (
      match Vfs.readdir inode with
      | Error e -> err e
      | Ok entries ->
        let all = Abi.encode_dirents entries in
        let cap = int_arg args 2 and pos = f.File.pos in
        (* Whole entries only, as Linux's filldir64: as many as fit in
           [cap], and EINVAL when the next one alone does not. *)
        let rec fit n =
          match Abi.dirent_len all (pos + n) with
          | 0 -> n
          | r -> if n + r > cap then n else fit (n + r)
        in
        let n = fit 0 in
        if n = 0 then if Abi.dirent_len all pos = 0 then ok 0 else err Errno.einval
        else begin
          match user_write proc ~vaddr:(int_arg args 1) (Bytes.sub all pos n) with
          | Ok () ->
            f.File.pos <- pos + n;
            ok n
          | Error e -> err e
        end)
    | File.Inode_file _ -> err Errno.enotdir
    | _ -> err Errno.enotdir)

let sys_getcwd proc args =
  let path = (Process.cwd proc).Vfs.path ^ "\000" in
  let cap = int_arg args 1 in
  if Vfs.dead_dir (Process.cwd proc).Vfs.inode then err Errno.enoent
  else if String.length path > cap then err Errno.einval
  else
    match user_write proc ~vaddr:(int_arg args 0) (Bytes.of_string path) with
    | Ok () -> ok (String.length path)
    | Error e -> err e

let sys_chdir proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok r when r.Vfs.inode.Vfs.kind = Vfs.Dir ->
      Process.set_cwd proc r;
      ok 0
    | Ok _ -> err Errno.enotdir
    | Error e -> err e)

(* A namespace call on the path at [args.(0)]: the rules are the VFS's. *)
let on_path proc args op =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> lift (Result.map (fun _ -> 0) (op ~cwd:(Process.cwd proc) path))

(* Two paths, at [args.(i)] and [args.(j)]. *)
let on_paths proc args i j op =
  match (read_str proc (int_arg args i), read_str proc (int_arg args j)) with
  | Error e, _ | _, Error e -> err e
  | Ok a, Ok b -> lift (Result.map (fun () -> 0) (op ~cwd:(Process.cwd proc) a b))

let sys_mkdir proc args =
  on_path proc args (fun ~cwd path ->
      Vfs.create ~cwd path Vfs.Dir ~mode:(int_arg args 1 land lnot (Process.umask proc)))

let sys_unlink proc args = on_path proc args Vfs.unlink

let sys_rmdir proc args = on_path proc args Vfs.rmdir

let at_removedir = 0x200

(* unlinkat(dirfd, path, flags): dirfd is not consulted (AT_FDCWD). *)
let sys_unlinkat proc args =
  let flags = int_arg args 2 and args = [| args.(1) |] in
  if flags land lnot at_removedir <> 0 then err Errno.einval
  else if flags = at_removedir then sys_rmdir proc args
  else sys_unlink proc args

let sys_rename proc args = on_paths proc args 0 1 Vfs.rename

let sys_link proc args = on_paths proc args 0 1 Vfs.link

let sys_symlink proc args = on_paths proc args 0 1 (fun ~cwd target path -> Vfs.symlink ~cwd ~target path)

let sys_readlink proc args =
  if int_arg args 2 <= 0 then err Errno.einval
  else
    match read_str proc (int_arg args 0) with
    | Error e -> err e
    | Ok path -> (
      match Vfs.resolve_last ~cwd:(Process.cwd proc) path with
      | Error e -> err e
      | Ok { Vfs.inode; _ } -> (
        match inode.Vfs.ops.Vfs.symlink_target inode with
        | None -> err Errno.einval
        | Some target ->
          let n = min (String.length target) (int_arg args 2) in
          (match user_write proc ~vaddr:(int_arg args 1) (Bytes.of_string (String.sub target 0 n)) with
          | Ok () -> ok n
          | Error e -> err e)))

let sys_truncate proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 1) 0 -> err Errno.einval
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok { Vfs.inode; _ } -> lift (Result.map (fun () -> 0) (Vfs.truncate inode (int_arg args 1))))

(* do_sys_ftruncate: the descriptor must be open for writing. *)
let sys_ftruncate proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 1) 0 -> err Errno.einval
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode when File.writable f ->
      lift (Result.map (fun () -> 0) (Vfs.truncate inode (int_arg args 1)))
    | _ -> err Errno.einval)

let sys_fsync proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> (
      match inode.Vfs.ops.Vfs.fsync inode with
      | Ok () -> (
        (* errseq_t: a writeback error since this file's last sample is
           this caller's to see, even if some sync(2) consumed the
           legacy sticky error first. The sample advances so the error
           reports once per file. *)
        match Block.wb_check ~since:f.File.wb_sample with
        | Ok () -> ok 0
        | Error (seq, code) ->
          f.File.wb_sample <- seq;
          err code)
      | Error e -> err e)
    | _ -> err Errno.einval)

let sys_chmod proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok { Vfs.inode; _ } ->
      inode.Vfs.mode <- int_arg args 1 land 0o7777;
      ok 0)

let sys_umask proc args =
  let old = Process.umask proc in
  Process.set_umask proc (int_arg args 0 land 0o777);
  ok old

(* Why the loop stopped: end-of-file is a normal exit, not an errno
   smuggled through the error channel. *)
type sendfile_stop = Sf_eof | Sf_err of int

let sys_sendfile proc args =
  match (file_for_write proc args.(0), file_for_read proc args.(1)) with
  | Error e, _ | _, Error e -> err e
  | Ok _, Ok _ when invalid_range (int_arg args 3) 0 -> err Errno.einval
  | Ok out_f, Ok in_f -> (
    match in_f.File.desc with
    | File.Inode_file inode when inode.Vfs.kind <> Vfs.Dir ->
      let count = int_arg args 3 in
      (* Zero-copy sendfile-to-wire: when the source is page-cache
         backed and the sink is TCP, queue a view of the cache frames —
         they stay pinned until the peer acknowledges their bytes, and
         the CPU never touches the payload. Anything else falls back to
         the classic bounce-buffer loop. *)
      let zero_copy =
        (Sim.Profile.get ()).Sim.Profile.sendfile_zero_copy
        && File.tcp_conn_of out_f <> None
        && Ramfs.file_cache inode <> None
      in
      let sent = ref 0 in
      let stop = ref None in
      let transfer buf =
        while !sent < count && !stop = None do
          let want = min stage_size (count - !sent) in
          if zero_copy then begin
            match Ramfs.file_view inode ~pos:in_f.File.pos ~len:want with
            | None -> stop := Some Sf_eof
            | Some view -> (
              let conn =
                match File.tcp_conn_of out_f with Some c -> c | None -> assert false
              in
              match Tcp.send_view conn view with
              | Ok w ->
                in_f.File.pos <- in_f.File.pos + w;
                sent := !sent + w
              | Error e -> stop := Some (Sf_err e))
          end
          else
            match inode.Vfs.ops.Vfs.read inode ~pos:in_f.File.pos ~buf ~boff:0 ~len:want with
            | Error e -> stop := Some (Sf_err e)
            | Ok 0 -> stop := Some Sf_eof
            | Ok n -> (
              (* The file-system read above was the first copy. *)
              Sim.Stats.add "net.bytes_copied" n;
              (* The paper: Asterinas' sendfile is less optimised — it
                 takes an extra copy through an intermediate buffer, and
                 the smoltcp-style stack copies once more into its own
                 transmit buffer. Linux's zero-copy path hands page-cache
                 pages to the NIC directly. *)
              if not (Sim.Profile.get ()).Sim.Profile.sendfile_zero_copy then begin
                Sim.Cost.charge_memcpy n;
                Sim.Stats.add "net.bytes_copied" n
              end;
              match do_write_desc out_f buf ~len:n with
              | Ok w ->
                in_f.File.pos <- in_f.File.pos + w;
                sent := !sent + w
              | Error e -> stop := Some (Sf_err e))
        done
      in
      (* The bounce loop's one buffer is the staging buffer. *)
      if zero_copy then transfer Bytes.empty else with_stage (min stage_size count) transfer;
      (match !stop with
      | None | Some Sf_eof -> ok !sent
      | Some (Sf_err e) -> if !sent > 0 then ok !sent else err e)
    | _ -> err Errno.einval)

(* --- Sockets --- *)

let sys_socket proc args =
  let domain = int_arg args 0 and typ = int_arg args 1 land 0xf in
  let kind =
    if domain = Abi.af_inet && typ = Abi.sock_stream then Some File.Inet_stream
    else if domain = Abi.af_inet && typ = Abi.sock_dgram then Some File.Inet_dgram
    else if domain = Abi.af_unix && typ = Abi.sock_stream then Some File.Unix_stream
    else None
  in
  match kind with
  | None -> err Errno.eafnosupport
  | Some kind ->
    let sock = { File.kind; st = File.S_unbound; bport = None; upath = None } in
    ok (File.Table.install (Process.fdt proc) (File.make (File.Socket sock) ~flags:File.o_rdwr))

let sock_of f =
  match f.File.desc with File.Socket s -> Ok s | _ -> Error Errno.enotsock

let read_sockaddr proc vaddr len =
  if vaddr = 0 then Ok None
  else
    match user_read proc ~vaddr ~len:(max 8 (min len 128)) with
    | Error e -> Error e
    | Ok b -> Ok (Abi.decode_sockaddr b)

let sys_bind proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match read_sockaddr proc (int_arg args 1) (int_arg args 2) with
      | Error e -> err e
      | Ok (Some (Abi.Addr_in { port; _ })) -> (
        match s.File.kind with
        | File.Inet_stream ->
          s.File.bport <- Some port;
          ok 0
        | File.Inet_dgram -> (
          let _, _, udp = the_net () in
          ignore udp;
          let u =
            match s.File.st with
            | File.S_udp u -> u
            | _ ->
              let _, _, eng = the_net () in
              let u = Udp.socket eng in
              s.File.st <- File.S_udp u;
              u
          in
          match Udp.bind u ~port with Ok () -> ok 0 | Error e -> err e)
        | File.Unix_stream -> err Errno.einval)
      | Ok (Some (Abi.Addr_un path)) ->
        s.File.upath <- Some path;
        ok 0
      | Ok None -> err Errno.efault))

let sys_listen proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match (s.File.kind, s.File.bport, s.File.upath) with
      | File.Inet_stream, Some port, _ -> (
        let _, tcp, _ = the_net () in
        let backlog =
          let b = int_arg args 1 in
          if b <= 0 then 1 else min b 4096
        in
        match Tcp.listen ~backlog tcp ~port with
        | Ok l ->
          s.File.st <- File.S_tcp_listener l;
          ok 0
        | Error e -> err e)
      | File.Unix_stream, _, Some path -> (
        match Unix_sock.listen ~path with
        | Ok l ->
          s.File.st <- File.S_unix_listener l;
          ok 0
        | Error e -> err e)
      | _ -> err Errno.einval))

(* accept4(2)'s SOCK_NONBLOCK shares O_NONBLOCK's bit value on Linux. *)
let sock_nonblock = File.o_nonblock

let do_accept proc f s ~addr_ptr ~sock_flags =
  let nflags = File.o_rdwr lor if sock_flags land sock_nonblock <> 0 then File.o_nonblock else 0 in
  (* A listener marked O_NONBLOCK never sleeps in accept: EAGAIN when
     the queue is empty — the epoll accept-drain loop's exit signal. *)
  let listener_nb = f.File.flags land File.o_nonblock <> 0 in
  match s.File.st with
  | File.S_tcp_listener l -> (
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.open_misc;
    let conn_opt = if listener_nb then Tcp.accept_opt l else Some (Tcp.accept l) in
    match conn_opt with
    | None -> err Errno.eagain
    | Some conn ->
      let ns =
        { File.kind = File.Inet_stream; st = File.S_tcp_conn conn; bport = None; upath = None }
      in
      let fd = File.Table.install (Process.fdt proc) (File.make (File.Socket ns) ~flags:nflags) in
      if addr_ptr <> 0 then begin
        let ip, port = Tcp.peer_of conn in
        ignore (user_write proc ~vaddr:addr_ptr (Abi.encode_sockaddr_in ~port ~ip))
      end;
      ok fd)
  | File.S_unix_listener l -> (
    let ep_opt = if listener_nb then Unix_sock.accept_opt l else Some (Unix_sock.accept l) in
    match ep_opt with
    | None -> err Errno.eagain
    | Some ep ->
      let ns =
        { File.kind = File.Unix_stream; st = File.S_unix_conn ep; bport = None; upath = None }
      in
      ok (File.Table.install (Process.fdt proc) (File.make (File.Socket ns) ~flags:nflags)))
  | _ -> err Errno.einval

let sys_accept proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> do_accept proc f s ~addr_ptr:(int_arg args 1) ~sock_flags:0)

let sys_accept4 proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> do_accept proc f s ~addr_ptr:(int_arg args 1) ~sock_flags:(int_arg args 3))

let sys_connect proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match read_sockaddr proc (int_arg args 1) (int_arg args 2) with
      | Error e -> err e
      | Ok (Some (Abi.Addr_in { port; ip })) -> (
        match s.File.kind with
        | File.Inet_stream -> (
          let _, tcp, _ = the_net () in
          match Tcp.connect tcp ~dst_ip:ip ~dst_port:port with
          | Ok conn ->
            s.File.st <- File.S_tcp_conn conn;
            ok 0
          | Error e -> err e)
        | File.Inet_dgram ->
          (* Connected UDP: remember the peer. *)
          s.File.bport <- Some port;
          ok 0
        | File.Unix_stream -> err Errno.einval)
      | Ok (Some (Abi.Addr_un path)) -> (
        match Unix_sock.connect ~path with
        | Ok ep ->
          s.File.st <- File.S_unix_conn ep;
          ok 0
        | Error e -> err e)
      | Ok None -> err Errno.efault))

let sys_sendto proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) 0 -> err Errno.einval
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match s.File.st with
      | (File.S_udp _ | File.S_unbound)
        when s.File.kind = File.Inet_dgram && int_arg args 2 > udp_max_payload ->
        err Errno.emsgsize
      | File.S_udp _ | File.S_unbound when s.File.kind = File.Inet_dgram ->
        (* A datagram goes out whole or not at all, so a fault anywhere
           in it is EFAULT, as on Linux. It fits the staging buffer. *)
        let len = int_arg args 2 in
        with_stage len (fun buf ->
            if user_read_into proc ~vaddr:(int_arg args 1) ~buf ~len < len then err Errno.efault
            else
              let u =
                match s.File.st with
                | File.S_udp u -> u
                | _ ->
                  let _, _, eng = the_net () in
                  let u = Udp.socket eng in
                  s.File.st <- File.S_udp u;
                  u
              in
              match read_sockaddr proc (int_arg args 4) (int_arg args 5) with
              | Error e -> err e
              | Ok (Some (Abi.Addr_in { port; ip })) ->
                lift (Udp.sendto u ~dst_ip:ip ~dst_port:port ~buf ~pos:0 ~len)
              | Ok _ -> err Errno.einval)
      | _ -> sys_write proc [| args.(0); args.(1); args.(2) |]))

let sys_recvfrom proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok _ when invalid_range (int_arg args 2) 0 -> err Errno.einval
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match s.File.st with
      | File.S_udp u ->
        let nonblock = f.File.flags land File.o_nonblock <> 0 and addr_ptr = int_arg args 4 in
        (* One datagram is one chunk; its source goes out before its
           bytes. *)
        lift
          (copy_out proc ~stream:false ~vaddr:(int_arg args 1) ~len:(int_arg args 2)
             (fun buf ~off:_ ~len ->
               match Udp.recvfrom ~nonblock u ~buf ~pos:0 ~len with
               | Error e -> Error e
               | Ok (n, src_ip, src_port) ->
                 if addr_ptr <> 0 then
                   ignore
                     (user_write proc ~vaddr:addr_ptr
                        (Abi.encode_sockaddr_in ~port:src_port ~ip:src_ip));
                 Ok n))
      | _ -> sys_read proc [| args.(0); args.(1); args.(2) |]))

let sys_socketpair proc args =
  if int_arg args 0 <> Abi.af_unix then err Errno.eafnosupport
  else begin
    let a, b = Unix_sock.socketpair () in
    let mk ep = { File.kind = File.Unix_stream; st = File.S_unix_conn ep; bport = None; upath = None } in
    let fdt = Process.fdt proc in
    let fa = File.Table.install fdt (File.make (File.Socket (mk a)) ~flags:File.o_rdwr) in
    let fb = File.Table.install fdt (File.make (File.Socket (mk b)) ~flags:File.o_rdwr) in
    let out = Bytes.create 8 in
    Bytes.set_int32_le out 0 (Int32.of_int fa);
    Bytes.set_int32_le out 4 (Int32.of_int fb);
    match user_write proc ~vaddr:(int_arg args 3) out with
    | Ok () -> ok 0
    | Error e -> err e
  end

let sys_getsockname proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s ->
      let port = match s.File.bport with Some p -> p | None -> 0 in
      (match user_write proc ~vaddr:(int_arg args 1) (Abi.encode_sockaddr_in ~port ~ip:0) with
      | Ok () -> ok 0
      | Error e -> err e))

(* [how] is SHUT_RD (0), SHUT_WR (1) or SHUT_RDWR (2). On TCP, a shut
   send side closes the connection. *)
let sys_shutdown proc args =
  let how = int_arg args 1 in
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok _ when how < 0 || how > 2 -> err Errno.einval
    | Ok s -> (
      let rd = how <> 1 and wr = how <> 0 in
      match s.File.st with
      | File.S_tcp_conn c ->
        if wr then Tcp.close c else Tcp.shutdown_rd c;
        ok 0
      | File.S_unix_conn ep ->
        Unix_sock.shutdown ep ~rd ~wr;
        ok 0
      | _ -> err Errno.enotconn))

(* --- Process management --- *)

let sys_kill _proc args =
  let pid = int_arg args 0 and signal = int_arg args 1 in
  match Process.by_pid pid with
  | None -> err Errno.esrch
  | Some target ->
    if signal = 0 then ok 0
    else begin
      Process.deliver_signal target signal;
      ok 0
    end

let sys_rt_sigaction proc args =
  let signal = int_arg args 0 and act_ptr = int_arg args 1 and old_ptr = int_arg args 2 in
  let st = Process.signals proc in
  if old_ptr <> 0 then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0
      (match Signal.action st ~signal with
      | Signal.Default -> 0L
      | Signal.Ignore -> 1L
      | Signal.Handled -> 2L);
    ignore (user_write proc ~vaddr:old_ptr b)
  end;
  if act_ptr = 0 then ok 0
  else
    match user_read proc ~vaddr:act_ptr ~len:8 with
    | Error e -> err e
    | Ok b ->
      let d =
        match Bytes.get_int64_le b 0 with
        | 0L -> Signal.Default
        | 1L -> Signal.Ignore
        | _ -> Signal.Handled
      in
      Signal.set_action st ~signal d;
      ok 0

let sys_rt_sigprocmask proc args =
  let how = int_arg args 0 and set_ptr = int_arg args 1 and old_ptr = int_arg args 2 in
  let st = Process.signals proc in
  if old_ptr <> 0 then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int (Signal.mask st));
    ignore (user_write proc ~vaddr:old_ptr b)
  end;
  if set_ptr = 0 then ok 0
  else
    match user_read proc ~vaddr:set_ptr ~len:8 with
    | Error e -> err e
    | Ok b ->
      let m = Int64.to_int (Bytes.get_int64_le b 0) in
      (match how with
      | 0 -> Signal.block st ~mask:m
      | 1 -> Signal.unblock st ~mask:m
      | 2 ->
        Signal.unblock st ~mask:(Signal.mask st);
        Signal.block st ~mask:m
      | _ -> ());
      ok 0

let sys_rt_sigpending proc args =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (Signal.pending (Process.signals proc)));
  match user_write proc ~vaddr:(int_arg args 0) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_mknod proc args =
  let mode = int_arg args 1 in
  let kind = if mode land 0o170000 = 0o010000 then Vfs.Fifo else Vfs.Reg in
  on_path proc args (fun ~cwd path -> Vfs.create ~cwd path kind ~mode:(mode land 0o777))

let sys_lstat proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve_last ~cwd:(Process.cwd proc) path with
    | Ok { Vfs.inode; _ } -> write_stat proc (int_arg args 1) inode
    | Error e -> err e)

let sys_statfs proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok { Vfs.inode; _ } ->
      (* struct statfs (simplified, 32 bytes): type tag, block size,
         total blocks, free blocks. *)
      let b = Bytes.create 32 in
      let is_ext2 = inode.Vfs.fsname = "ext2" in
      let blocks, free =
        match inode.Vfs.fsname with
        | "ext2" -> (Block.capacity_sectors () / Block.sectors_per_block, Ext2.free_blocks ())
        | "ramfs" -> Ramfs.space ()
        | _ -> (0, 0)
      in
      Bytes.set_int64_le b 0 (if is_ext2 then 0xEF53L else 0x858458F6L);
      Bytes.set_int64_le b 8 4096L;
      Bytes.set_int64_le b 16 (Int64.of_int blocks);
      Bytes.set_int64_le b 24 (Int64.of_int free);
      (match user_write proc ~vaddr:(int_arg args 1) b with
      | Ok () -> ok 0
      | Error e -> err e))

let sys_fchdir proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode when inode.Vfs.kind = Vfs.Dir ->
      (* Recover an absolute path is not tracked per-fd; keep the inode
         with the cwd's old path as best effort (fchdir after open "/x"). *)
      Process.set_cwd proc { Vfs.inode; path = (Process.cwd proc).Vfs.path };
      ok 0
    | File.Inode_file _ -> err Errno.enotdir
    | _ -> err Errno.enotdir)

let sys_sync _proc _args =
  match Ext2.sync_fs () with Ok () -> ok 0 | Error e -> err e

let sys_fork proc args =
  match Process.resolve_child args.(0) with
  | None -> err Errno.einval
  | Some child -> ok (Process.fork_current proc ~child)

let sys_clone proc args =
  match Process.resolve_child args.(0) with
  | None -> err Errno.einval
  | Some body -> ok (Process.spawn_thread proc ~body)

let sys_wait4 proc args =
  match Process.wait_child proc with
  | Error e -> err e
  | Ok (pid, code) -> (
    let status_ptr = int_arg args 1 in
    if status_ptr = 0 then ok pid
    else begin
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int ((code land 0xff) lsl 8));
      match user_write proc ~vaddr:status_ptr b with
      | Ok () -> ok pid
      | Error e -> err e
    end)

let sys_uname proc args =
  let s = "Asterinas-OCaml\000framekernel\0006.0-repro\000x86_64-sim\000" in
  match user_write proc ~vaddr:(int_arg args 0) (Bytes.of_string s) with
  | Ok () -> ok 0
  | Error e -> err e

(* --- CPU-time exports from task accounting (kprof) --- *)

let cycles_to_usec c = c / Sim.Time.cycles_per_us

(* CLK_TCK = 100: one clock tick is 10ms of virtual time. *)
let cycles_per_tick = Sim.Time.cycles_per_us * 10_000

let cycles_to_ticks c = Int64.of_int (c / cycles_per_tick)

let proc_cpu_times proc =
  match Process.task proc with Some t -> Ostd.Task.cpu_times t | None -> (0, 0)

let sys_clock_gettime proc args =
  let clk = int_arg args 0 in
  let ns =
    if clk = 1 then Ktime.monotonic_ns ()
    else if clk = 2 || clk = 3 then begin
      (* CLOCK_PROCESS_CPUTIME_ID / CLOCK_THREAD_CPUTIME_ID: one task
         per process here, so both read the task's utime + stime. *)
      let ut, st = proc_cpu_times proc in
      Sim.Time.to_ns (ut + st)
    end
    else Ktime.realtime_ns ()
  in
  let sec = Int64.of_int (ns / 1_000_000_000) and nsec = Int64.of_int (ns mod 1_000_000_000) in
  match user_write proc ~vaddr:(int_arg args 1) (Abi.encode_timespec ~sec ~nsec) with
  | Ok () -> ok 0
  | Error e -> err e

let sys_getrusage proc args =
  (* struct rusage: two timevals then 14 longs (144 bytes). The fields
     the simulator accounts are real: ru_utime, ru_stime, ru_nvcsw,
     ru_nivcsw. who = RUSAGE_CHILDREN (-1) reports zeros — child times
     are not folded back into the parent. *)
  let who = Int64.to_int args.(0) in
  let b = Bytes.make 144 '\000' in
  let put_timeval off cycles =
    let usec = cycles_to_usec cycles in
    Bytes.set_int64_le b off (Int64.of_int (usec / 1_000_000));
    Bytes.set_int64_le b (off + 8) (Int64.of_int (usec mod 1_000_000))
  in
  if who >= 0 then begin
    let ut, st = proc_cpu_times proc in
    put_timeval 0 ut;
    put_timeval 16 st;
    match Process.task proc with
    | Some t ->
      let nv, niv = Ostd.Task.ctx_switches t in
      Bytes.set_int64_le b 128 (Int64.of_int nv);
      Bytes.set_int64_le b 136 (Int64.of_int niv)
    | None -> ()
  end;
  match user_write proc ~vaddr:(int_arg args 1) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_times proc args =
  (* struct tms: four clock_t at CLK_TCK = 100; the return value is
     ticks of uptime. A NULL buffer just returns the tick count. *)
  let uptime_ticks = cycles_to_ticks (Sim.Time.now ()) in
  let ptr = int_arg args 0 in
  if ptr = 0 then ok64 uptime_ticks
  else begin
    let ut, st = proc_cpu_times proc in
    let b = Bytes.make 32 '\000' in
    Bytes.set_int64_le b 0 (cycles_to_ticks ut);
    Bytes.set_int64_le b 8 (cycles_to_ticks st);
    (* tms_cutime / tms_cstime stay zero: no child-time folding. *)
    match user_write proc ~vaddr:ptr b with
    | Ok () -> ok64 uptime_ticks
    | Error e -> err e
  end

let sys_gettimeofday proc args =
  let ns = Ktime.realtime_ns () in
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int (ns / 1_000_000_000));
  Bytes.set_int64_le b 8 (Int64.of_int (ns mod 1_000_000_000 / 1000));
  match user_write proc ~vaddr:(int_arg args 0) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_time proc args =
  let sec = Int64.of_int (Ktime.realtime_ns () / 1_000_000_000) in
  let ptr = int_arg args 0 in
  if ptr = 0 then ok64 sec
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 sec;
    match user_write proc ~vaddr:ptr b with
    | Ok () -> ok64 sec
    | Error e -> err e
  end

(* One RNG per call fills the chunks in order, so a count the staging
   buffer holds gets the bytes one fill of the whole count would. *)
let sys_getrandom proc args =
  let len = int_arg args 1 in
  if invalid_range len 0 then err Errno.einval
  else begin
    let rng = Sim.Rng.create (Int64.of_int (Sim.Time.now ())) in
    let fill buf ~off:_ ~len =
      for i = 0 to len - 1 do
        Bytes.set buf i (Char.chr (Sim.Rng.int rng 256))
      done;
      Ok len
    in
    lift
      (copy_out proc ~stream:false ~vaddr:(int_arg args 0) ~len:(Int.min len max_rw_count) fill)
  end

(* --- Readiness syscalls: poll(2) + the epoll family ---

   Both sit on the Pollable seam. poll is the O(nfds) shape: every
   call resolves and levels every fd; blocking parks on the pollables'
   edge publications with a [Wait_queue.sleep_timeout] toward the
   deadline — no busy loop.
   epoll is the O(ready) shape: the interest list lives in the kernel
   and a wait touches only edge-queued entries. *)

let pollable_of_desc (d : File.desc) =
  match d with
  | File.Pipe { pb; _ } -> Some pb
  | File.Epoll e -> Some (Epoll.pollable e)
  | File.Socket s -> (
    match s.File.st with
    | File.S_tcp_conn c -> Some (Tcp.pollable c)
    | File.S_tcp_listener l -> Some (Tcp.listener_pollable l)
    | File.S_udp u -> Some (Udp.pollable u)
    | File.S_unix_conn ep -> Some ep.Unix_sock.pollable
    | File.S_unix_listener l -> Some (Unix_sock.listener_pollable l)
    | File.S_unbound -> None)
  | File.Inode_file _ -> None

let sys_poll proc args =
  (* pollfd: int fd, short events, short revents. *)
  let base = int_arg args 0 in
  let nfds = int_arg args 1 in
  if nfds < 0 then err Errno.einval
  else begin
    (* ERR/HUP/NVAL are reported whether requested or not. *)
    let always = Pollable.pollerr lor Pollable.pollhup lor Pollable.pollnval in
    (* Parse the array and resolve every fd once (poll holds its file
       references for the call's whole duration): a closed fd is
       POLLNVAL, a negative one is ignored, a regular file is always
       readable+writable. This is the per-call O(nfds) cost epoll
       amortises away — each resolution charges an fd lookup. *)
    let entries =
      Array.init nfds (fun i ->
          match user_read proc ~vaddr:(base + (8 * i)) ~len:8 with
          | Error _ -> (-1, 0, `Static 0)
          | Ok b ->
            let fd = Int32.to_int (Bytes.get_int32_le b 0) in
            let events = Bytes.get_uint16_le b 4 in
            let src =
              if fd < 0 then `Static 0
              else
                match File.Table.lookup (Process.fdt proc) fd with
                | None -> `Static Pollable.pollnval
                | Some f -> (
                  match pollable_of_desc f.File.desc with
                  | Some p -> `Pollable p
                  | None -> (
                    match f.File.desc with
                    | File.Inode_file _ -> `Static (Pollable.pollin lor Pollable.pollout)
                    | _ -> `Static 0))
            in
            (fd, events, src))
    in
    let revents_of (_, events, src) =
      match src with
      | `Static bits -> bits land (events lor always)
      | `Pollable p -> Pollable.level p land (events lor always)
    in
    let scan () = Array.map revents_of entries in
    let count revs = Array.fold_left (fun n r -> if r <> 0 then n + 1 else n) 0 revs in
    let write_back revs =
      let b = Bytes.create 8 in
      Array.iteri
        (fun i (fd, events, _) ->
          Bytes.set_int32_le b 0 (Int32.of_int fd);
          Bytes.set_uint16_le b 4 events;
          Bytes.set_uint16_le b 6 revs.(i);
          ignore (user_write proc ~vaddr:(base + (8 * i)) b))
        entries
    in
    let timeout_ms = int_arg args 2 in
    let deadline =
      if timeout_ms < 0 then None
      else Some (Sim.Time.now () + Sim.Time.of_us (float_of_int timeout_ms *. 1000.))
    in
    (* Subscribe before the first scan so no edge can slip between
       "level says not ready" and "blocked" (the sim never preempts
       between the two, but the order costs nothing and reads right). *)
    let wq = Ostd.Wait_queue.create () in
    let subs =
      Array.to_list entries
      |> List.filter_map (fun (_, _, src) ->
             match src with
             | `Pollable p ->
               Some (p, Pollable.attach p (fun _ -> ignore (Ostd.Wait_queue.wake_all wq : int)))
             | `Static _ -> None)
    in
    let finish revs =
      List.iter (fun (p, w) -> Pollable.detach p w) subs;
      write_back revs;
      ok (count revs)
    in
    let rec loop () =
      let revs = scan () in
      if count revs > 0 || timeout_ms = 0 then finish revs
      else
        match deadline with
        | Some dl ->
          let left = dl - Sim.Time.now () in
          if left <= 0 then finish revs
          else begin
            ignore (Ostd.Wait_queue.sleep_timeout wq ~cycles:left : bool);
            loop ()
          end
        | None ->
          Ostd.Wait_queue.sleep wq;
          loop ()
    in
    loop ()
  end

(* epoll_event on the wire: packed u32 events + u64 data (12 bytes),
   the x86-64 layout. *)
let epoll_event_size = 12

let sys_epoll_create1 proc _args =
  let e = Epoll.create () in
  ok (File.Table.install (Process.fdt proc) (File.make (File.Epoll e) ~flags:File.o_rdwr))

let sys_epoll_ctl proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok epf -> (
    match epf.File.desc with
    | File.Epoll ep -> (
      let op = int_arg args 1 in
      let fd = int_arg args 2 in
      match File.Table.lookup (Process.fdt proc) fd with
      | None -> err Errno.ebadf
      | Some tf ->
        if tf == epf then err Errno.einval (* an epoll fd cannot watch itself *)
        else if op = Epoll.op_del then (
          match Epoll.ctl_del ep ~fd with Ok () -> ok 0 | Error e -> err e)
        else (
          match user_read proc ~vaddr:(int_arg args 3) ~len:epoll_event_size with
          | Error e -> err e
          | Ok b -> (
            let events = Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff in
            let data = Bytes.get_int64_le b 4 in
            let res =
              if op = Epoll.op_add then (
                match pollable_of_desc tf.File.desc with
                | None -> Error Errno.eperm (* regular files don't poll *)
                | Some p -> Epoll.ctl_add ep ~fd ~pollable:p ~events ~data)
              else if op = Epoll.op_mod then Epoll.ctl_mod ep ~fd ~events ~data
              else Error Errno.einval
            in
            match res with Ok () -> ok 0 | Error e -> err e)))
    | _ -> err Errno.einval)

let sys_epoll_wait proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok epf -> (
    match epf.File.desc with
    | File.Epoll ep ->
      let maxevents = int_arg args 2 in
      if maxevents <= 0 then err Errno.einval
      else begin
        let timeout_ms = int_arg args 3 in
        let timeout_cycles =
          if timeout_ms < 0 then -1 else Sim.Time.of_us (float_of_int timeout_ms *. 1000.)
        in
        let evs = Epoll.wait ep ~maxevents ~timeout_cycles in
        let n = List.length evs in
        if n = 0 then ok 0
        else begin
          let b = Bytes.create (epoll_event_size * n) in
          List.iteri
            (fun i (data, revents) ->
              Bytes.set_int32_le b (epoll_event_size * i) (Int32.of_int revents);
              Bytes.set_int64_le b ((epoll_event_size * i) + 4) data)
            evs;
          match user_write proc ~vaddr:(int_arg args 1) b with
          | Ok () -> ok n
          | Error e -> err e
        end
      end
    | _ -> err Errno.einval)

(* --- bpf(2)-lite probe surface ---

   probe_load(text, len) feeds program text to the kprobe
   parser/verifier; the program attaches on success (returning its
   load-order id) and is rejected wholesale with EINVAL otherwise (the
   reason lands in /proc/kprobe/programs). probe_read(name, buf, len,
   off) copies the program's rendered map tables out, read(2)-style. *)

let probe_text_max = 65536

let sys_probe_load proc args =
  let len = int_arg args 1 in
  if len <= 0 || len > probe_text_max then err Errno.einval
  else
    match user_read proc ~vaddr:(int_arg args 0) ~len with
    | Error e -> err e
    | Ok buf -> (
      match Kprobe.Registry.load_text (Bytes.to_string buf) with
      | Error _ ->
        (* The rejection reason is latched in Registry.last_error. *)
        Sim.Stats.incr "kprobe.rejected";
        err Errno.einval
      | Ok name ->
        Sim.Stats.incr "kprobe.loaded";
        let rec index i = function
          | [] -> -1
          | n :: tl -> if n = name then i else index (i + 1) tl
        in
        ok (index 0 (Kprobe.Registry.list ())))

let sys_probe_read proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok name -> (
    match Kprobe.Registry.render_maps name with
    | None -> err Errno.enoent
    | Some text ->
      let off = int_arg args 3 in
      let len = int_arg args 2 in
      if off < 0 || len < 0 then err Errno.einval
      else if off >= String.length text then ok 0
      else begin
        let n = min len (String.length text - off) in
        match user_write proc ~vaddr:(int_arg args 1) (Bytes.of_string (String.sub text off n)) with
        | Error e -> err e
        | Ok () -> ok n
      end)

(* kspan request boundaries: span_begin(cls_ptr, name_ptr) opens a
   span on the calling task and returns its id; span_end(id) seals it.
   Both are bookkeeping-only — no virtual cycles beyond the ordinary
   syscall cost, so span-on runs stay byte-identical. *)
let sys_span_begin proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok cls -> (
    match read_str proc (int_arg args 1) with
    | Error e -> err e
    | Ok name ->
      if cls = "" then err Errno.einval else ok (Sim.Span.begin_ ~cls ~name))

let sys_span_end _proc args =
  let id = int_arg args 0 in
  if id < 0 then err Errno.einval
  else begin
    Sim.Span.end_ id;
    ok 0
  end

(* --- Dispatch table --- *)

let handlers : (int, Process.t -> int64 array -> (int64, int) result) Hashtbl.t =
  Hashtbl.create 128

let reg nr h = Hashtbl.replace handlers nr h

let const_ok _ _ = ok 0

let register_all () =
  reg N.read sys_read;
  reg N.write sys_write;
  reg N.open_ sys_open;
  reg N.openat sys_openat;
  reg N.creat (fun proc args ->
      do_open proc
        (match read_str proc (int_arg args 0) with Ok p -> p | Error _ -> "")
        (Vfs.o_creat lor Vfs.o_trunc lor File.o_wronly)
        (int_arg args 1));
  reg N.close sys_close;
  reg N.stat sys_stat;
  reg N.fstat sys_fstat;
  reg N.newfstatat sys_newfstatat;
  reg N.access sys_access;
  reg N.lseek sys_lseek;
  reg N.pread64 sys_pread;
  reg N.pwrite64 sys_pwrite;
  reg N.readv sys_readv;
  reg N.writev sys_writev;
  reg N.pipe sys_pipe2;
  reg N.pipe2 sys_pipe2;
  reg N.dup sys_dup;
  reg N.dup2 sys_dup2;
  reg N.fcntl sys_fcntl;
  reg N.mmap sys_mmap;
  reg N.munmap sys_munmap;
  reg N.mprotect sys_mprotect;
  reg N.brk sys_brk;
  reg N.nanosleep sys_nanosleep;
  reg N.clock_nanosleep sys_clock_nanosleep;
  reg N.sched_yield (fun _ _ ->
      Ostd.Task.yield_now ();
      ok 0);
  reg N.getpid (fun proc _ -> ok (Process.pid proc));
  reg N.getppid (fun proc _ -> ok (Process.parent_pid proc));
  reg N.gettid (fun proc _ -> ok (Process.pid proc));
  reg N.getuid const_ok;
  reg N.getgid const_ok;
  reg N.geteuid const_ok;
  reg N.getegid const_ok;
  reg N.setsid (fun proc _ -> ok (Process.pid proc));
  reg N.umask sys_umask;
  reg N.getdents sys_getdents;
  reg N.getdents64 sys_getdents;
  reg N.getcwd sys_getcwd;
  reg N.chdir sys_chdir;
  reg N.mkdir sys_mkdir;
  reg N.mkdirat (fun proc args -> sys_mkdir proc [| args.(1); args.(2) |]);
  reg N.rmdir sys_rmdir;
  reg N.unlink sys_unlink;
  reg N.unlinkat sys_unlinkat;
  reg N.rename sys_rename;
  reg N.renameat (fun proc args -> sys_rename proc [| args.(1); args.(3) |]);
  reg N.link sys_link;
  reg N.symlink sys_symlink;
  reg N.readlink sys_readlink;
  reg N.truncate sys_truncate;
  reg N.ftruncate sys_ftruncate;
  reg N.fsync sys_fsync;
  reg N.fdatasync sys_fsync;
  reg N.flock const_ok;
  reg N.chmod sys_chmod;
  reg N.chown const_ok;
  reg N.ioctl const_ok;
  reg N.sendfile sys_sendfile;
  reg N.socket sys_socket;
  reg N.bind sys_bind;
  reg N.listen sys_listen;
  reg N.accept sys_accept;
  reg N.connect sys_connect;
  reg N.sendto sys_sendto;
  reg N.recvfrom sys_recvfrom;
  reg N.socketpair sys_socketpair;
  reg N.getsockname sys_getsockname;
  reg N.setsockopt (fun proc args ->
      (match file_of proc args.(0) with
      | Ok { File.desc = File.Socket { File.st = File.S_tcp_conn conn; _ }; _ }
        when int_arg args 1 = 6 && int_arg args 2 = 1 ->
        Tcp.set_nodelay conn
      | _ -> ());
      ok 0);
  reg N.getsockopt const_ok;
  reg N.shutdown sys_shutdown;
  reg N.fork sys_fork;
  reg 56 sys_clone;
  reg N.execve (fun proc args ->
      match read_str proc (int_arg args 0) with
      | Error e -> err e
      | Ok path -> (
        match read_str_array proc (int_arg args 1) with
        | Error e -> err e
        | Ok argv -> (
          match Process.do_exec proc path argv with
          | Ok () -> Ok Int64.min_int (* marker, see dispatch *)
          | Error e -> err e)));
  reg N.kill sys_kill;
  reg N.rt_sigaction sys_rt_sigaction;
  reg N.rt_sigprocmask sys_rt_sigprocmask;
  reg N.rt_sigpending sys_rt_sigpending;
  reg N.mknod sys_mknod;
  reg N.lstat sys_lstat;
  reg N.statfs sys_statfs;
  reg N.fchdir sys_fchdir;
  reg N.sync sys_sync;
  reg N.dup3 sys_dup2;
  reg N.exit (fun proc _args -> Process.do_exit proc (int_arg _args 0));
  reg N.exit_group (fun proc _args -> Process.do_exit proc (int_arg _args 0));
  reg N.wait4 sys_wait4;
  reg N.uname sys_uname;
  reg N.gettimeofday sys_gettimeofday;
  reg N.clock_gettime sys_clock_gettime;
  reg N.time sys_time;
  reg N.getrandom sys_getrandom;
  reg N.poll sys_poll;
  reg N.epoll_create1 sys_epoll_create1;
  reg N.epoll_ctl sys_epoll_ctl;
  reg N.epoll_wait sys_epoll_wait;
  reg N.accept4 sys_accept4;
  reg N.getrlimit const_ok;
  reg N.getrusage sys_getrusage;
  reg N.times sys_times;
  reg N.probe_load sys_probe_load;
  reg N.probe_read sys_probe_read;
  reg N.span_begin sys_span_begin;
  reg N.span_end sys_span_end

let implemented_count () = Hashtbl.length handlers

let implemented_numbers () =
  Hashtbl.fold (fun nr _ acc -> nr :: acc) handlers [] |> List.sort compare

let dispatch proc nr args =
  (* Registers the user did not set read as zero; handlers can index
     args.(0..5) safely no matter what user space passed. *)
  let args =
    if Array.length args >= 6 then args
    else Array.init 6 (fun i -> if i < Array.length args then args.(i) else 0L)
  in
  match Hashtbl.find_opt handlers nr with
  | Some h -> (
    (* Containment boundary: a service-level failure raised anywhere
       below (a block read the device could not serve, say) surfaces
       here as the syscall's errno instead of taking the kernel down.
       Invariant violations (Kernel_panic) still propagate. *)
    let res =
      match Ostd.Panic.contain (fun () -> h proc args) with
      | Ok r -> r
      | Error errno ->
        Sim.Stats.incr "syscall.contained_failure";
        Error errno
    in
    (* Syscall exit unplugs the TX queue: segments collected during the
       handler leave as one burst (block-layer plug/flush, ported to the
       NIC). Runs on success and error alike — an errno must not strand
       a half-collected burst. *)
    Netstack.flush_all ();
    match res with
    | Ok v when v = Int64.min_int && nr = N.execve -> Process.Exec_done
    | Ok v -> Process.Ret v
    | Error e -> Process.Ret (Int64.of_int (-e)))
  | None ->
    Sim.Stats.incr "syscall.enosys";
    Process.Ret (Int64.of_int (-Errno.enosys))

let install () =
  (* A task of the last boot may have been asleep holding the buffer. *)
  stage_holder := None;
  if Hashtbl.length handlers = 0 then register_all ();
  Process.set_syscall_handler dispatch
