module N = Aster.Syscall_nr

type t = {
  u : Ostd.User.uapi;
  mutable scratch_base : int;
  mutable scratch_pos : int;
  scratch_size : int;
}

let i64 = Int64.of_int

let syscall t nr args = Int64.to_int (t.u.Ostd.User.sys nr args)

let mmap_raw u len =
  Int64.to_int (u.Ostd.User.sys N.mmap [| 0L; i64 len; 3L; 0x22L; -1L; 0L |])

let make u =
  let scratch_size = 256 * 1024 in
  let scratch_base = mmap_raw u scratch_size in
  { u; scratch_base; scratch_pos = 0; scratch_size }

let raw t = t.u

(* --- Fork tokens --- *)

let fork_tokens : (int64, Ostd.User.uapi -> int) Hashtbl.t = Hashtbl.create 32

let next_token = ref 0L

let resolver_installed = ref false

let install_child_resolver () =
  if not !resolver_installed then begin
    resolver_installed := true;
    Aster.Process.set_child_resolver (fun tok ->
        match Hashtbl.find_opt fork_tokens tok with
        | Some body ->
          Hashtbl.remove fork_tokens tok;
          Some body
        | None -> None)
  end

(* --- User memory helpers --- *)

let ualloc t len = mmap_raw t.u len

let scratch_alloc t len =
  let len = (len + 15) land lnot 15 in
  if len > t.scratch_size then invalid_arg "Libc: scratch allocation too large";
  if t.scratch_pos + len > t.scratch_size then t.scratch_pos <- 0;
  let addr = t.scratch_base + t.scratch_pos in
  t.scratch_pos <- t.scratch_pos + len;
  addr

let put_bytes t b =
  let addr = scratch_alloc t (Bytes.length b) in
  t.u.Ostd.User.mem_write addr b;
  addr

let put_string t s = put_bytes t (Bytes.of_string (s ^ "\000"))

let get_bytes t vaddr len =
  let b = Bytes.create len in
  t.u.Ostd.User.mem_read vaddr b;
  b

(* --- Wrappers --- *)

let openf t path ~flags ~mode =
  syscall t N.open_ [| i64 (put_string t path); i64 flags; i64 mode |]

let close t fd = syscall t N.close [| i64 fd |]

let read t ~fd ~vaddr ~len = syscall t N.read [| i64 fd; i64 vaddr; i64 len |]

let write t ~fd ~vaddr ~len = syscall t N.write [| i64 fd; i64 vaddr; i64 len |]

let read_str t ~fd ~len =
  let vaddr = scratch_alloc t len in
  let n = read t ~fd ~vaddr ~len in
  if n <= 0 then "" else Bytes.to_string (get_bytes t vaddr n)

let write_str t ~fd s =
  let vaddr = put_bytes t (Bytes.of_string s) in
  write t ~fd ~vaddr ~len:(String.length s)

let pread t ~fd ~vaddr ~len ~off = syscall t N.pread64 [| i64 fd; i64 vaddr; i64 len; i64 off |]

let pwrite t ~fd ~vaddr ~len ~off =
  syscall t N.pwrite64 [| i64 fd; i64 vaddr; i64 len; i64 off |]

let lseek t ~fd ~off ~whence = syscall t N.lseek [| i64 fd; i64 off; i64 whence |]

let stat t path =
  let sb = scratch_alloc t Aster.Abi.stat_size in
  let r = syscall t N.stat [| i64 (put_string t path); i64 sb |] in
  if r < 0 then Error (-r) else Ok (Aster.Abi.decode_stat (get_bytes t sb Aster.Abi.stat_size))

let fstat t fd =
  let sb = scratch_alloc t Aster.Abi.stat_size in
  let r = syscall t N.fstat [| i64 fd; i64 sb |] in
  if r < 0 then Error (-r) else Ok (Aster.Abi.decode_stat (get_bytes t sb Aster.Abi.stat_size))

let unlink t path = syscall t N.unlink [| i64 (put_string t path) |]

let mkdir t path = syscall t N.mkdir [| i64 (put_string t path); 0o755L |]

let rmdir t path = syscall t N.rmdir [| i64 (put_string t path) |]

let rename t a b = syscall t N.rename [| i64 (put_string t a); i64 (put_string t b) |]

let fsync t fd = syscall t N.fsync [| i64 fd |]

let ftruncate t ~fd ~len = syscall t N.ftruncate [| i64 fd; i64 len |]

let chdir t path = syscall t N.chdir [| i64 (put_string t path) |]

let getcwd t =
  let buf = scratch_alloc t 256 in
  let n = syscall t N.getcwd [| i64 buf; 256L |] in
  if n <= 0 then "/" else Bytes.to_string (get_bytes t buf (n - 1))

let getdents t ~fd =
  let cap = 16384 in
  let buf = scratch_alloc t cap in
  let n = syscall t N.getdents64 [| i64 fd; i64 buf; i64 cap |] in
  if n <= 0 then [] else Aster.Abi.decode_dirents (get_bytes t buf n)

let pipe t =
  let fds = scratch_alloc t 8 in
  let r = syscall t N.pipe [| i64 fds |] in
  if r < 0 then Error (-r)
  else begin
    let b = get_bytes t fds 8 in
    Ok (Int32.to_int (Bytes.get_int32_le b 0), Int32.to_int (Bytes.get_int32_le b 4))
  end

let dup2 t oldfd newfd = syscall t N.dup2 [| i64 oldfd; i64 newfd |]

let access t path = syscall t N.access [| i64 (put_string t path); 0L |]

let symlink t ~target ~linkpath =
  syscall t N.symlink [| i64 (put_string t target); i64 (put_string t linkpath) |]

let readlink t path =
  let buf = scratch_alloc t 256 in
  let n = syscall t N.readlink [| i64 (put_string t path); i64 buf; 256L |] in
  if n < 0 then Error (-n) else Ok (Bytes.to_string (get_bytes t buf n))

let mmap t ~len = mmap_raw t.u len

let munmap t ~addr ~len = syscall t N.munmap [| i64 addr; i64 len |]

let brk t v = syscall t N.brk [| i64 v |]

let getpid t = syscall t N.getpid [||]

let getppid t = syscall t N.getppid [||]

let sched_yield t = syscall t N.sched_yield [||]

let nanosleep_us t us =
  let sec = Int64.of_float (us /. 1e6) in
  let nsec = Int64.of_float ((us -. (Int64.to_float sec *. 1e6)) *. 1e3) in
  let ts = put_bytes t (Aster.Abi.encode_timespec ~sec ~nsec) in
  syscall t N.nanosleep [| i64 ts; 0L |]

let clock_monotonic_ns t =
  let ts = scratch_alloc t 16 in
  ignore (syscall t N.clock_gettime [| 1L; i64 ts |]);
  let sec, nsec = Aster.Abi.decode_timespec (get_bytes t ts 16) in
  Int64.add (Int64.mul sec 1_000_000_000L) nsec

(* CLOCK_PROCESS_CPUTIME_ID: CPU time consumed, in nanoseconds. *)
let clock_process_cputime_ns t =
  let ts = scratch_alloc t 16 in
  ignore (syscall t N.clock_gettime [| 2L; i64 ts |]);
  let sec, nsec = Aster.Abi.decode_timespec (get_bytes t ts 16) in
  Int64.add (Int64.mul sec 1_000_000_000L) nsec

type rusage = {
  ru_utime_us : int64;
  ru_stime_us : int64;
  ru_nvcsw : int64;
  ru_nivcsw : int64;
}

let getrusage ?(who = 0) t =
  let buf = scratch_alloc t 144 in
  let r = syscall t N.getrusage [| i64 who; i64 buf |] in
  if r < 0 then None
  else begin
    let b = get_bytes t buf 144 in
    let timeval off =
      Int64.add
        (Int64.mul (Bytes.get_int64_le b off) 1_000_000L)
        (Bytes.get_int64_le b (off + 8))
    in
    Some
      {
        ru_utime_us = timeval 0;
        ru_stime_us = timeval 16;
        ru_nvcsw = Bytes.get_int64_le b 128;
        ru_nivcsw = Bytes.get_int64_le b 136;
      }
  end

type tms = { tms_utime : int64; tms_stime : int64; tms_uptime : int64 (* return value *) }

let times t =
  let buf = scratch_alloc t 32 in
  let r = syscall t N.times [| i64 buf |] in
  let b = get_bytes t buf 32 in
  {
    tms_utime = Bytes.get_int64_le b 0;
    tms_stime = Bytes.get_int64_le b 8;
    tms_uptime = Int64.of_int r;
  }

let uname t =
  let buf = scratch_alloc t 128 in
  ignore (syscall t N.uname [| i64 buf |]);
  let b = get_bytes t buf 128 in
  match Bytes.index_opt b '\000' with
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

let fork t child =
  next_token := Int64.add !next_token 1L;
  let tok = !next_token in
  Hashtbl.replace fork_tokens tok child;
  syscall t N.fork [| tok |]

let clone_thread t body =
  next_token := Int64.add !next_token 1L;
  let tok = !next_token in
  Hashtbl.replace fork_tokens tok body;
  syscall t 56 [| tok |]

let execve t path argv =
  let path_ptr = put_string t path in
  let ptrs = List.map (fun a -> put_string t a) argv in
  let arr = Bytes.create (8 * (List.length ptrs + 1)) in
  List.iteri (fun idx p -> Bytes.set_int64_le arr (8 * idx) (i64 p)) ptrs;
  Bytes.set_int64_le arr (8 * List.length ptrs) 0L;
  let argv_ptr = put_bytes t arr in
  syscall t N.execve [| i64 path_ptr; i64 argv_ptr |]

let exit t code =
  ignore (syscall t N.exit [| i64 code |]);
  assert false

let waitpid t =
  let status = scratch_alloc t 4 in
  let r = syscall t N.wait4 [| -1L; i64 status; 0L; 0L |] in
  if r < 0 then Error (-r)
  else begin
    let b = get_bytes t status 4 in
    Ok (r, (Int32.to_int (Bytes.get_int32_le b 0) lsr 8) land 0xff)
  end

let socket t ~domain ~typ = syscall t N.socket [| i64 domain; i64 typ; 0L |]

let bind_inet t ~fd ~port =
  let sa = put_bytes t (Aster.Abi.encode_sockaddr_in ~port ~ip:0) in
  syscall t N.bind [| i64 fd; i64 sa; 8L |]

let bind_unix t ~fd ~path =
  let b = Aster.Abi.encode_sockaddr_un path in
  let sa = put_bytes t b in
  syscall t N.bind [| i64 fd; i64 sa; i64 (Bytes.length b) |]

let listen t ~fd ~backlog = syscall t N.listen [| i64 fd; i64 backlog |]

let accept t ~fd = syscall t N.accept [| i64 fd; 0L; 0L |]

let accept4 t ~fd ~flags = syscall t N.accept4 [| i64 fd; 0L; 0L; i64 flags |]

let fcntl_getfl t ~fd = syscall t N.fcntl [| i64 fd; 3L; 0L |]

let fcntl_setfl t ~fd ~flags = syscall t N.fcntl [| i64 fd; 4L; i64 flags |]

let o_nonblock = 0o4000

let set_nonblock t ~fd =
  let fl = fcntl_getfl t ~fd in
  if fl < 0 then fl else fcntl_setfl t ~fd ~flags:(fl lor o_nonblock)

(* --- poll / epoll --- *)

let pollin = 0x001
let pollout = 0x004
let pollerr = 0x008
let pollhup = 0x010
let pollnval = 0x020
let pollrdhup = 0x2000

(* poll(2): [fds] is (fd, events) pairs; returns ready count and the
   per-fd revents, in order. *)
let poll t fds ~timeout_ms =
  let n = List.length fds in
  let arr = Bytes.make (8 * n) '\000' in
  List.iteri
    (fun i (fd, events) ->
      Bytes.set_int32_le arr (8 * i) (Int32.of_int fd);
      Bytes.set_uint16_le arr ((8 * i) + 4) events)
    fds;
  let ptr = put_bytes t arr in
  let r = syscall t N.poll [| i64 ptr; i64 n; i64 timeout_ms |] in
  if r < 0 then Error (-r)
  else begin
    let b = get_bytes t ptr (8 * n) in
    let revs = List.mapi (fun i (fd, _) -> (fd, Bytes.get_uint16_le b ((8 * i) + 6))) fds in
    Ok (r, revs)
  end

let epollin = pollin
let epollout = pollout
let epollerr = pollerr
let epollhup = pollhup
let epollrdhup = pollrdhup
let epolloneshot = 1 lsl 30
let epollet = 1 lsl 31
let epoll_ctl_add = 1
let epoll_ctl_del = 2
let epoll_ctl_mod = 3

let epoll_create1 t = syscall t N.epoll_create1 [| 0L |]

(* struct epoll_event: packed u32 events + u64 data. *)
let epoll_ctl t ~epfd ~op ~fd ~events ~data =
  let ev = Bytes.make 12 '\000' in
  Bytes.set_int32_le ev 0 (Int32.of_int events);
  Bytes.set_int64_le ev 4 data;
  let ptr = put_bytes t ev in
  syscall t N.epoll_ctl [| i64 epfd; i64 op; i64 fd; i64 ptr |]

(* Returns ready count and (data, events) pairs. *)
let epoll_wait t ~epfd ~maxevents ~timeout_ms =
  let ptr = scratch_alloc t (12 * maxevents) in
  let r = syscall t N.epoll_wait [| i64 epfd; i64 ptr; i64 maxevents; i64 timeout_ms |] in
  if r < 0 then Error (-r)
  else begin
    let b = get_bytes t ptr (12 * r) in
    let evs =
      List.init r (fun i ->
          let events = Int32.to_int (Bytes.get_int32_le b (12 * i)) land 0xffffffff in
          let data = Bytes.get_int64_le b ((12 * i) + 4) in
          (data, events))
    in
    Ok (r, evs)
  end

let connect_inet t ~fd ~ip ~port =
  let sa = put_bytes t (Aster.Abi.encode_sockaddr_in ~port ~ip) in
  syscall t N.connect [| i64 fd; i64 sa; 8L |]

let connect_unix t ~fd ~path =
  let b = Aster.Abi.encode_sockaddr_un path in
  let sa = put_bytes t b in
  syscall t N.connect [| i64 fd; i64 sa; i64 (Bytes.length b) |]

let sendto_inet t ~fd ~ip ~port ~vaddr ~len =
  let sa = put_bytes t (Aster.Abi.encode_sockaddr_in ~port ~ip) in
  syscall t N.sendto [| i64 fd; i64 vaddr; i64 len; 0L; i64 sa; 8L |]

let recvfrom t ~fd ~vaddr ~len = syscall t N.recvfrom [| i64 fd; i64 vaddr; i64 len; 0L; 0L; 0L |]

let sendfile t ~out_fd ~in_fd ~count =
  syscall t N.sendfile [| i64 out_fd; i64 in_fd; 0L; i64 count |]

let shutdown t ~fd = syscall t N.shutdown [| i64 fd; 2L |]

let set_nodelay t ~fd = syscall t N.setsockopt [| i64 fd; 6L; 1L; 0L; 0L |]

let mkfifo t path =
  syscall t N.mknod [| i64 (put_string t path); i64 (0o010000 lor 0o644) |]

let kill t ~pid ~signal = syscall t N.kill [| i64 pid; i64 signal |]

let sigaction_raw t signal v =
  let act = scratch_alloc t 8 in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  t.u.Ostd.User.mem_write act b;
  syscall t N.rt_sigaction [| i64 signal; i64 act; 0L |]

let signal_ignore t signal = sigaction_raw t signal 1L

let sigmask_raw t how signal =
  let set = scratch_alloc t 8 in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (1 lsl (signal - 1)));
  t.u.Ostd.User.mem_write set b;
  syscall t N.rt_sigprocmask [| i64 how; i64 set; 0L |]

let sigblock t signal = sigmask_raw t 0 signal

let sigunblock t signal = sigmask_raw t 1 signal

let sigpending t =
  let set = scratch_alloc t 8 in
  ignore (syscall t N.rt_sigpending [| i64 set |]);
  Int64.to_int (Bytes.get_int64_le (get_bytes t set 8) 0)

(* --- kprobe probe surface --- *)

let probe_load t text =
  let vaddr = put_bytes t (Bytes.of_string text) in
  syscall t N.probe_load [| i64 vaddr; i64 (String.length text) |]

let probe_read t name =
  let cap = 4096 in
  let buf = Buffer.create 256 in
  let rec loop off =
    (* re-stage the name each round: scratch wraps on long reads *)
    let namep = put_string t name in
    let vaddr = scratch_alloc t cap in
    let n = syscall t N.probe_read [| i64 namep; i64 vaddr; i64 cap; i64 off |] in
    if n < 0 then Error (-n)
    else if n = 0 then Ok (Buffer.contents buf)
    else begin
      Buffer.add_bytes buf (get_bytes t vaddr n);
      if n < cap then Ok (Buffer.contents buf) else loop (off + n)
    end
  in
  loop 0

(* --- kspan request boundaries --- *)

let span_begin t ~cls ~name =
  let clsp = put_string t cls in
  let namep = put_string t name in
  syscall t N.span_begin [| i64 clsp; i64 namep |]

let span_end t id = syscall t N.span_end [| i64 id |]
