let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let boot ?(profile = Sim.Profile.asterinas) () =
  let k = Aster.Kernel.boot ~profile () in
  Apps.Libc.install_child_resolver ();
  k

(* Run a user program as init and return its exit code. *)
let run_user ?profile body =
  ignore (boot ?profile ());
  let result = ref None in
  let wrapped uapi =
    let code = body (Apps.Libc.make uapi) in
    result := Some code;
    code
  in
  ignore (Aster.Process.spawn_kernel_style ~name:"test" wrapped);
  Aster.Kernel.run ();
  match !result with
  | Some code -> code
  | None -> Alcotest.fail "user program did not finish"

(* --- Policies --- *)

let test_buddy_coalescing () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ~frames:2048 ();
  Aster.Sched_policy.install ();
  let b = Aster.Buddy.create () in
  Ostd.Falloc.inject (Aster.Buddy.as_frame_alloc b);
  Ostd.Boot.feed_free_memory ();
  let free0 = Aster.Buddy.free_pages b in
  let frames = List.init 20 (fun _ -> Ostd.Frame.alloc ()) in
  check_int "free dropped" (free0 - 20) (Aster.Buddy.free_pages b);
  List.iter Ostd.Frame.drop frames;
  check_int "free restored" free0 (Aster.Buddy.free_pages b);
  (* Large allocation still possible after churn: coalescing works. *)
  let big = Ostd.Frame.alloc ~pages:256 () in
  Ostd.Frame.drop big

let test_buddy_pcpu_cache () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ~frames:2048 ();
  Aster.Sched_policy.install ();
  let b = Aster.Buddy.create () in
  Ostd.Falloc.inject (Aster.Buddy.as_frame_alloc b);
  Ostd.Boot.feed_free_memory ();
  let f = Ostd.Frame.alloc () in
  Ostd.Frame.drop f;
  let hits0 = Sim.Stats.get "buddy.pcpu_hit" in
  let g = Ostd.Frame.alloc () in
  check "cache hit" true (Sim.Stats.get "buddy.pcpu_hit" = hits0 + 1);
  Ostd.Frame.drop g

let test_slab_cache_magazine () =
  Sim.Profile.set Sim.Profile.asterinas;
  Kernmiri.Corpus.fresh_boot ();
  let c = Aster.Slab_policy.cache_create ~name:"t" ~slot_size:128 () in
  let slots = List.init 40 (fun _ -> Aster.Slab_policy.cache_alloc c) in
  check "multiple slabs grown" true (Aster.Slab_policy.cache_slabs c >= 2);
  List.iter (Aster.Slab_policy.cache_dealloc c) slots;
  ignore (Aster.Slab_policy.cache_shrink c);
  check_int "all objects returned" 0 (Aster.Slab_policy.cache_active c)

let test_cfs_fairness () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  Aster.Sched_policy.install ();
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();
  (* Two spinning tasks: CFS should alternate them rather than run one to
     completion. *)
  let log = ref [] in
  let spin tag () =
    for _ = 1 to 4 do
      log := tag :: !log;
      Sim.Clock.charge 1000;
      Ostd.Task.yield_now ()
    done
  in
  ignore (Ostd.Task.spawn ~name:"a" (spin "a"));
  ignore (Ostd.Task.spawn ~name:"b" (spin "b"));
  Ostd.Task.run ();
  let order = List.rev !log in
  (* Strict alternation is not required, but neither task may run 4 slots
     in a row at the start. *)
  check "interleaved" true (List.filteri (fun i _ -> i < 4) order <> [ "a"; "a"; "a"; "a" ])

let test_rt_preempts_fair () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  Aster.Sched_policy.install ();
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();
  let log = ref [] in
  ignore (Ostd.Task.spawn ~name:"fair" (fun () -> log := "fair" :: !log));
  let rt = Ostd.Task.spawn ~name:"rt" (fun () -> log := "rt" :: !log) in
  Aster.Sched_policy.set_class rt (Aster.Sched_policy.Rt 1);
  (* Re-enqueue by waking after setting the class is not needed: the task
     is already queued as fair. Spawn order puts fair first, so check the
     class applies to the *next* enqueue instead: spawn a third task. *)
  let rt2 = ref None in
  ignore
    (Ostd.Task.spawn ~name:"spawner" (fun () ->
         let t = Ostd.Task.spawn ~name:"late-fair" (fun () -> log := "late" :: !log) in
         ignore t;
         let t2 =
           Ostd.Task.spawn ~name:"rt2" (fun () -> log := "rt2" :: !log)
         in
         ignore t2;
         rt2 := Some t2));
  Ostd.Task.run ();
  check "all ran" true (List.length !log = 4)

(* --- End-to-end user programs --- *)

let test_hello_ramfs () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/tmp/hello.txt" ~flags:0o101 (* O_CREAT|O_WRONLY *) ~mode:0o644 in
        if fd < 0 then 1
        else begin
          ignore (Apps.Libc.write_str c ~fd "hello framekernel");
          ignore (Apps.Libc.close c fd);
          let fd = Apps.Libc.openf c "/tmp/hello.txt" ~flags:0 ~mode:0 in
          let s = Apps.Libc.read_str c ~fd:fd ~len:64 in
          ignore (Apps.Libc.close c fd);
          if s = "hello framekernel" then 0 else 2
        end)
  in
  check_int "exit code" 0 code

let test_stat_and_dirs () =
  let code =
    run_user (fun c ->
        if Apps.Libc.mkdir c "/tmp/d" < 0 then 1
        else begin
          let fd = Apps.Libc.openf c "/tmp/d/f" ~flags:0o101 ~mode:0o600 in
          ignore (Apps.Libc.write_str c ~fd "12345");
          ignore (Apps.Libc.close c fd);
          match Apps.Libc.stat c "/tmp/d/f" with
          | Error _ -> 2
          | Ok st ->
            if st.Aster.Abi.size <> 5 then 3
            else begin
              let dfd = Apps.Libc.openf c "/tmp/d" ~flags:0 ~mode:0 in
              let names = List.map (fun (_, _, n) -> n) (Apps.Libc.getdents c ~fd:dfd) in
              ignore (Apps.Libc.close c dfd);
              if names = [ "."; ".."; "f" ] then 0 else 4
            end
        end)
  in
  check_int "exit code" 0 code

let test_rename_unlink () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/tmp/a" ~flags:0o101 ~mode:0o644 in
        ignore (Apps.Libc.write_str c ~fd "data");
        ignore (Apps.Libc.close c fd);
        if Apps.Libc.rename c "/tmp/a" "/tmp/b" < 0 then 1
        else if Apps.Libc.access c "/tmp/a" >= 0 then 2
        else if Apps.Libc.access c "/tmp/b" < 0 then 3
        else if Apps.Libc.unlink c "/tmp/b" < 0 then 4
        else if Apps.Libc.access c "/tmp/b" >= 0 then 5
        else 0)
  in
  check_int "exit code" 0 code

let test_symlink () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/tmp/target" ~flags:0o101 ~mode:0o644 in
        ignore (Apps.Libc.write_str c ~fd "via link");
        ignore (Apps.Libc.close c fd);
        if Apps.Libc.symlink c ~target:"/tmp/target" ~linkpath:"/tmp/lnk" < 0 then 1
        else begin
          let fd = Apps.Libc.openf c "/tmp/lnk" ~flags:0 ~mode:0 in
          let s = Apps.Libc.read_str c ~fd ~len:64 in
          ignore (Apps.Libc.close c fd);
          match Apps.Libc.readlink c "/tmp/lnk" with
          | Ok "/tmp/target" when s = "via link" -> 0
          | Ok _ -> 2
          | Error _ -> 3
        end)
  in
  check_int "exit code" 0 code

(* --- Linux's answer to each namespace case ---

   Every case runs from a fresh fixture on /tmp (ramfs) and on /ext2:
   a file f holding "hello", an empty directory e, a directory n holding
   x, a symlink l -> f and symlinks loop1 and loop2 that point at each
   other. For the cross-mount cases each file system is the other's
   other mount. The expected answers are what Linux 6.18 answered, run
   as root on the same fixture (on tmpfs and on ext4). An answer is 0, a
   negated errno, a size, a read count or a link count. *)

let ns_cases =
  let module E = Aster.Errno in
  let module L = Apps.Libc in
  let module N = Aster.Syscall_nr in
  let p c s = Int64.of_int (L.put_string c s) in
  let sys c nr args = L.syscall c nr args in
  let with_fd c path flags k =
    let fd = L.openf c path ~flags ~mode:0 in
    let r = k fd in
    ignore (L.close c fd);
    r
  in
  let byte c = L.put_bytes c (Bytes.of_string "!") in
  [
    ("rmdir f", -E.enotdir, fun c d _ -> L.rmdir c (d ^ "/f"));
    ("unlink e", -E.eisdir, fun c d _ -> L.unlink c (d ^ "/e"));
    ("rmdir e/.", -E.einval, fun c d _ -> L.rmdir c (d ^ "/e/."));
    ("rmdir e/..", -E.enotempty, fun c d _ -> L.rmdir c (d ^ "/e/.."));
    ("rmdir n", -E.enotempty, fun c d _ -> L.rmdir c (d ^ "/n"));
    ("rmdir e/", 0, fun c d _ -> L.rmdir c (d ^ "/e/"));
    ("unlink f/", -E.enotdir, fun c d _ -> L.unlink c (d ^ "/f/"));
    ( "unlinkat e AT_REMOVEDIR",
      0,
      fun c d _ -> sys c N.unlinkat [| -100L; p c (d ^ "/e"); 0x200L |] );
    ("unlinkat e 0", -E.eisdir, fun c d _ -> sys c N.unlinkat [| -100L; p c (d ^ "/e"); 0L |]);
    ("rename e e/x", -E.einval, fun c d _ -> L.rename c (d ^ "/e") (d ^ "/e/x"));
    ("rename e f", -E.enotdir, fun c d _ -> L.rename c (d ^ "/e") (d ^ "/f"));
    ("rename f e", -E.eisdir, fun c d _ -> L.rename c (d ^ "/f") (d ^ "/e"));
    ("rename e n", -E.enotempty, fun c d _ -> L.rename c (d ^ "/e") (d ^ "/n"));
    ("rename n e", 0, fun c d _ -> L.rename c (d ^ "/n") (d ^ "/e"));
    ("rename f f", 0, fun c d _ -> L.rename c (d ^ "/f") (d ^ "/f"));
    ("link e e2", -E.eperm, fun c d _ -> sys c N.link [| p c (d ^ "/e"); p c (d ^ "/e2") |]);
    ("link f e", -E.eexist, fun c d _ -> sys c N.link [| p c (d ^ "/f"); p c (d ^ "/e") |]);
    ("rename f other mount", -E.exdev, fun c d o -> L.rename c (d ^ "/f") (o ^ "/xdev"));
    ( "link f other mount",
      -E.exdev,
      fun c d o -> sys c N.link [| p c (d ^ "/f"); p c (o ^ "/xdev") |] );
    ("mkdir f", -E.eexist, fun c d _ -> L.mkdir c (d ^ "/f"));
    ("mkdir e/.", -E.eexist, fun c d _ -> L.mkdir c (d ^ "/e/."));
    ("open e O_WRONLY", -E.eisdir, fun c d _ -> L.openf c (d ^ "/e") ~flags:0o1 ~mode:0);
    ("open e O_RDWR", -E.eisdir, fun c d _ -> L.openf c (d ^ "/e") ~flags:0o2 ~mode:0);
    ("open e O_RDONLY|O_TRUNC", -E.eisdir, fun c d _ -> L.openf c (d ^ "/e") ~flags:0o1000 ~mode:0);
    ("open f/", -E.enotdir, fun c d _ -> L.openf c (d ^ "/f/") ~flags:0 ~mode:0);
    ("open e/ O_CREAT", -E.eisdir, fun c d _ -> L.openf c (d ^ "/e/") ~flags:0o101 ~mode:0o644);
    ("open g/ O_CREAT", -E.eisdir, fun c d _ -> L.openf c (d ^ "/g/") ~flags:0o101 ~mode:0o644);
    ("truncate e", -E.eisdir, fun c d _ -> sys c N.truncate [| p c (d ^ "/e"); 0L |]);
    ("open loop1", -E.eloop, fun c d _ -> L.openf c (d ^ "/loop1") ~flags:0 ~mode:0);
    ( "readlink l size 0",
      -E.einval,
      fun c d _ -> sys c N.readlink [| p c (d ^ "/l"); Int64.of_int (byte c); 0L |] );
    ( "write O_RDONLY",
      -E.ebadf,
      fun c d _ -> with_fd c (d ^ "/f") 0 (fun fd -> L.write c ~fd ~vaddr:(byte c) ~len:1) );
    ( "read O_WRONLY",
      -E.ebadf,
      fun c d _ -> with_fd c (d ^ "/f") 1 (fun fd -> L.read c ~fd ~vaddr:(byte c) ~len:1) );
    ( "pwrite64 O_RDONLY",
      -E.ebadf,
      fun c d _ -> with_fd c (d ^ "/f") 0 (fun fd -> L.pwrite c ~fd ~vaddr:(byte c) ~len:1 ~off:0) );
    ( "ftruncate O_RDONLY",
      -E.einval,
      fun c d _ -> with_fd c (d ^ "/f") 0 (fun fd -> L.ftruncate c ~fd ~len:0) );
    ( "pwrite64 at 0 on O_APPEND: size",
      6,
      fun c d _ ->
        let r =
          with_fd c (d ^ "/f") 0o2001 (fun fd -> L.pwrite c ~fd ~vaddr:(byte c) ~len:1 ~off:0)
        in
        if r <> 1 then r
        else match L.stat c (d ^ "/f") with Ok st -> st.Aster.Abi.size | Error e -> -e );
    ( "pread64 of an open, unlinked f",
      5,
      fun c d _ ->
        with_fd c (d ^ "/f") 0 (fun fd ->
            ignore (L.unlink c (d ^ "/f"));
            let buf = L.ualloc c 4096 in
            let n = L.pread c ~fd ~vaddr:buf ~len:5 ~off:0 in
            if n = 5 && Bytes.to_string (L.get_bytes c buf 5) = "hello" then 5 else -1000) );
    ("rmdir /proc", -E.ebusy, fun c _ _ -> L.rmdir c "/proc");
    ("rmdir /ext2", -E.ebusy, fun c _ _ -> L.rmdir c "/ext2");
    ("rmdir /dev/null", -E.enotdir, fun c _ _ -> L.rmdir c "/dev/null");
    ("unlink /proc/stat", -E.eperm, fun c _ _ -> L.unlink c "/proc/stat");
    ( "stat /dev/null: st_nlink",
      1,
      fun c _ _ -> match L.stat c "/dev/null" with Ok st -> st.Aster.Abi.nlink | Error e -> -e );
    ( "open dangling dl -> g O_CREAT, write 1: size of g",
      1,
      fun c d _ ->
        ignore (L.symlink c ~target:"g" ~linkpath:(d ^ "/dl"));
        let fd = L.openf c (d ^ "/dl") ~flags:0o101 ~mode:0o644 in
        if fd < 0 then fd
        else begin
          ignore (L.write c ~fd ~vaddr:(byte c) ~len:1);
          ignore (L.close c fd);
          match L.stat c (d ^ "/g") with Ok st -> st.Aster.Abi.size | Error e -> -e
        end );
    ( "open dangling dl -> g O_CREAT|O_EXCL",
      -E.eexist,
      fun c d _ ->
        ignore (L.symlink c ~target:"g" ~linkpath:(d ^ "/dl"));
        let r = L.openf c (d ^ "/dl") ~flags:0o301 ~mode:0o644 in
        if L.access c (d ^ "/g") >= 0 then -1000 else r );
  ]

let ns_fixture c d =
  let module L = Apps.Libc in
  ignore (L.mkdir c d);
  let fd = L.openf c (d ^ "/f") ~flags:0o101 ~mode:0o644 in
  ignore (L.write_str c ~fd "hello");
  ignore (L.close c fd);
  ignore (L.mkdir c (d ^ "/e"));
  ignore (L.mkdir c (d ^ "/n"));
  ignore (L.close c (L.openf c (d ^ "/n/x") ~flags:0o101 ~mode:0o644));
  ignore (L.symlink c ~target:"f" ~linkpath:(d ^ "/l"));
  ignore (L.symlink c ~target:"loop2" ~linkpath:(d ^ "/loop1"));
  ignore (L.symlink c ~target:"loop1" ~linkpath:(d ^ "/loop2"))

let test_linux_namespace_cases () =
  let wrong = ref [] in
  let code =
    run_user (fun c ->
        ignore (Apps.Libc.mkdir c "/tmp/ns");
        ignore (Apps.Libc.mkdir c "/ext2/ns");
        List.iter
          (fun (root, other) ->
            List.iteri
              (fun i (name, want, call) ->
                let d = Printf.sprintf "%s/c%02d" root i in
                ns_fixture c d;
                let got = call c d other in
                if got <> want then
                  wrong := Printf.sprintf "%s: %s: %d, Linux %d" root name got want :: !wrong;
                if root = "/ext2/ns" then
                  List.iter
                    (fun v -> wrong := Printf.sprintf "%s: %s: fsck: %s" root name v :: !wrong)
                    (Aster.Fsck.check ()))
              ns_cases)
          [ ("/tmp/ns", "/ext2/ns"); ("/ext2/ns", "/tmp/ns") ];
        0)
  in
  check_int "exit" 0 code;
  check_int "forty-three cases" 43 (List.length ns_cases);
  Alcotest.(check (list string)) "answers unlike Linux" [] (List.rev !wrong)

(* --- IPC: pipes, FIFOs and unix stream sockets answer as Linux ---

   Each case is a short program and its answers: a count, 0, a negated
   errno, or the revents poll(2) returns when asked for IN|OUT|RDHUP
   (IN|OUT for the O_RDWR FIFO). The expected answers are what Linux
   6.18.44 answered to the same program in C, run as root. A FIFO's
   read opens use O_NONBLOCK, so that Linux's open does not wait for a
   writer; the FIFO cases run on /tmp and on /ext2. *)

let ipc_fifo_cases, ipc_stream_cases =
  let module E = Aster.Errno in
  let module L = Apps.Libc in
  let module N = Aster.Syscall_nr in
  let rd_nb = L.o_nonblock and wronly = 1 and rdwr = 2 in
  let w c fd n = L.write_str c ~fd (String.make n 'x') in
  let r c fd = L.read c ~fd ~vaddr:(L.ualloc c 4096) ~len:4096 in
  let revents c fd events =
    match L.poll c [ (fd, events) ] ~timeout_ms:0 with
    | Ok (_, [ (_, rev) ]) -> rev
    | Ok _ -> -1
    | Error e -> -e
  in
  let all = L.pollin lor L.pollout lor L.pollrdhup in
  let close c fds = List.iter (fun fd -> ignore (L.close c fd)) fds in
  let shutdown c fd how = L.syscall c N.shutdown [| Int64.of_int fd; Int64.of_int how |] in
  let pair c =
    let sv = L.ualloc c 8 in
    ignore (L.syscall c N.socketpair [| 1L; 1L; 0L; Int64.of_int sv |]);
    let b = L.get_bytes c sv 8 in
    (Int32.to_int (Bytes.get_int32_le b 0), Int32.to_int (Bytes.get_int32_le b 4))
  in
  (* Each socketpair case ends with both descriptors closed. *)
  let on_pair k c =
    let a, b = pair c in
    let answers = k c a b in
    close c [ a; b ];
    answers
  in
  ( [
      ( "reopened after the last close",
        [ 5; 5 ],
        fun c p ->
          let once () =
            let rd = L.openf c p ~flags:rd_nb ~mode:0 in
            let wr = L.openf c p ~flags:wronly ~mode:0 in
            let wrote = w c wr 5 in
            let ans = [ wrote; r c rd ] in
            close c [ rd; wr ];
            ans
          in
          ignore (once ());
          once () );
      ( "one of two writers closes",
        [ 3; 3 ],
        fun c p ->
          let rd = L.openf c p ~flags:rd_nb ~mode:0 in
          let w1 = L.openf c p ~flags:wronly ~mode:0 in
          let w2 = L.openf c p ~flags:wronly ~mode:0 in
          close c [ w1 ];
          let wrote = w c w2 3 in
          let ans = [ wrote; r c rd ] in
          close c [ rd; w2 ];
          ans );
      ( "O_RDWR writes, then reads",
        [ 3; 3 ],
        fun c p ->
          let fd = L.openf c p ~flags:rdwr ~mode:0 in
          let wrote = w c fd 3 in
          let ans = [ wrote; r c fd ] in
          close c [ fd ];
          ans );
      ( "O_RDWR revents, empty then with data",
        [ 0x4; 0x5 ],
        fun c p ->
          let fd = L.openf c p ~flags:rdwr ~mode:0 in
          let empty = revents c fd (L.pollin lor L.pollout) in
          ignore (w c fd 3);
          let ans = [ empty; revents c fd (L.pollin lor L.pollout) ] in
          close c [ fd ];
          ans );
      ( "unread bytes go with the last close",
        [ -E.eagain ],
        fun c p ->
          let rd = L.openf c p ~flags:rd_nb ~mode:0 in
          let wr = L.openf c p ~flags:wronly ~mode:0 in
          ignore (w c wr 5);
          close c [ rd; wr ];
          let rd = L.openf c p ~flags:rd_nb ~mode:0 in
          let wr = L.openf c p ~flags:wronly ~mode:0 in
          let ans = [ r c rd ] in
          close c [ rd; wr ];
          ans );
    ],
    [
      ( "socketpair SHUT_WR: the peer drains, then both ways on",
        [ 3; 0; 4; 4 ],
        on_pair (fun c a b ->
            ignore (w c a 3);
            ignore (shutdown c a 1);
            let r1 = r c b in
            let r2 = r c b in
            let w1 = w c b 4 in
            [ r1; r2; w1; r c a ]) );
      ( "socketpair SHUT_RD: the peer's write fails, ours goes",
        [ -E.epipe; 0; 2; 2 ],
        on_pair (fun c a b ->
            ignore (shutdown c a 0);
            let w1 = w c b 3 in
            let r1 = r c a in
            let w2 = w c a 2 in
            [ w1; r1; w2; r c b ]) );
      ( "socketpair: the survivor's revents after its peer closes",
        [ 0x2015 ],
        fun c ->
          let a, b = pair c in
          close c [ a ];
          let ans = [ revents c b all ] in
          close c [ b ];
          ans );
      ( "socketpair: revents of a, b after shutdown(a, SHUT_RDWR)",
        [ 0x2015; 0x2015 ],
        on_pair (fun c a b ->
            ignore (shutdown c a 2);
            let ra = revents c a all in
            [ ra; revents c b all ]) );
      ( "socketpair: revents of a, b after shutdown(a, SHUT_WR)",
        [ 0x4; 0x2005 ],
        on_pair (fun c a b ->
            ignore (shutdown c a 1);
            let ra = revents c a all in
            [ ra; revents c b all ]) );
      ( "socketpair: revents of a, b after shutdown(a, SHUT_RD)",
        [ 0x2005; 0x4 ],
        on_pair (fun c a b ->
            ignore (shutdown c a 0);
            let ra = revents c a all in
            [ ra; revents c b all ]) );
      ("shutdown(fd, 3)", [ -E.einval ], on_pair (fun c a _ -> [ shutdown c a 3 ]));
      ( "unix listener closed before accept: the client's revents, read, read, revents, write",
        [ 0x201d; -E.econnreset; 0; 0x2015; -E.epipe ],
        fun c ->
          let path = "/tmp/ipc_listener" in
          let lfd = L.socket c ~domain:1 ~typ:1 in
          ignore (L.bind_unix c ~fd:lfd ~path);
          ignore (L.listen c ~fd:lfd ~backlog:4);
          let cfd = L.socket c ~domain:1 ~typ:1 in
          ignore (L.connect_unix c ~fd:cfd ~path);
          ignore (L.set_nonblock c ~fd:cfd);
          close c [ lfd ];
          let r0 = revents c cfd all in
          let r1 = r c cfd in
          let r2 = r c cfd in
          let r3 = revents c cfd all in
          let ans = [ r0; r1; r2; r3; w c cfd 3 ] in
          close c [ cfd ];
          ans );
      ( "socketpair: a full sender after its peer closes: revents, read, revents, read, write",
        [ 0x0; 0x201d; -E.econnreset; 0x2015; 0; -E.epipe ],
        fun c ->
          let a, b = pair c in
          ignore (L.set_nonblock c ~fd:a);
          while w c a 4096 > 0 do
            ()
          done;
          let full = revents c a all in
          close c [ b ];
          let r0 = revents c a all in
          let r1 = r c a in
          let r2 = revents c a all in
          let r3 = r c a in
          let ans = [ full; r0; r1; r2; r3; w c a 3 ] in
          close c [ a ];
          ans );
      ( "loopback TCP SHUT_RD: queued bytes read, the send side stays",
        [ 3; 2; 2 ],
        fun c ->
          let lfd = L.socket c ~domain:2 ~typ:1 in
          ignore (L.bind_inet c ~fd:lfd ~port:7400);
          ignore (L.listen c ~fd:lfd ~backlog:4);
          let cfd = L.socket c ~domain:2 ~typ:1 in
          ignore (L.connect_inet c ~fd:cfd ~ip:(Aster.Packet.ip_of_string "127.0.0.1") ~port:7400);
          let peer = L.accept c ~fd:lfd in
          ignore (w c peer 3);
          ignore (L.nanosleep_us c 10_000.);
          ignore (shutdown c cfd 0);
          let r1 = r c cfd in
          let w1 = w c cfd 2 in
          let ans = [ r1; w1; r c peer ] in
          close c [ cfd; peer; lfd ];
          ans );
      ( "pipe: the read end's revents after the writer closes, the write end's after the reader",
        [ 0x10; 0xc ],
        fun c ->
          match (L.pipe c, L.pipe c) with
          | Ok (r1, w1), Ok (r2, w2) ->
            close c [ w1; r2 ];
            let rr = revents c r1 all in
            let ans = [ rr; revents c w2 all ] in
            close c [ r1; w2 ];
            ans
          | _ -> [ -1 ] );
    ] )

let test_ipc_linux_cases () =
  let wrong = ref [] in
  let show l = String.concat ", " (List.map string_of_int l) in
  let compare name want got =
    if got <> want then wrong := Printf.sprintf "%s: %s, Linux %s" name (show got) (show want) :: !wrong
  in
  let code =
    run_user (fun c ->
        List.iter
          (fun root ->
            List.iteri
              (fun i (name, want, case) ->
                let p = Printf.sprintf "%s/fifo%d" root i in
                ignore (Apps.Libc.mkfifo c p);
                compare (root ^ ": FIFO " ^ name) want (case c p);
                ignore (Apps.Libc.unlink c p);
                if root = "/ext2" then
                  List.iter
                    (fun v -> wrong := Printf.sprintf "%s: FIFO %s: fsck: %s" root name v :: !wrong)
                    (Aster.Fsck.check ()))
              ipc_fifo_cases)
          [ "/tmp"; "/ext2" ];
        List.iter (fun (name, want, case) -> compare name want (case c)) ipc_stream_cases;
        0)
  in
  check_int "exit" 0 code;
  check_int "sixteen cases" 16 (List.length ipc_fifo_cases + List.length ipc_stream_cases);
  Alcotest.(check (list string)) "answers unlike Linux" [] (List.rev !wrong)

(* --- Generated namespace sequences ---

   Seeded sequences of namespace and data calls over eight names on
   /tmp, /ext2 and /dev, plus /dev/null and /proc/stat. Oracles: no
   panic and no exception out of the kernel; fsck clean once every fd
   is closed and sync has run; every frame back once the names are
   gone; and the same sequence gives the same transcript. *)

type ns_op =
  | Open of int * int  (* path, flags *)
  | Close of int  (* fd slot *)
  | Read of int
  | Write of int * int  (* fd slot, bytes *)
  | Unlink of int
  | Rmdir of int
  | Mkdir of int
  | Rename of int * int
  | Link of int * int
  | Symlink of int * int  (* target, link path *)
  | Truncate of int * int

let ns_paths =
  [| "/tmp/a"; "/tmp/b"; "/tmp/a/x"; "/ext2/a"; "/ext2/b"; "/ext2/a/x"; "/dev/a"; "/dev/b";
     "/dev/null"; "/proc/stat" |]

let show_ns_op =
  let p i = ns_paths.(i) in
  function
  | Open (i, fl) -> Printf.sprintf "open %s 0o%o" (p i) fl
  | Close k -> Printf.sprintf "close #%d" k
  | Read k -> Printf.sprintf "read #%d" k
  | Write (k, n) -> Printf.sprintf "write #%d %d" k n
  | Unlink i -> "unlink " ^ p i
  | Rmdir i -> "rmdir " ^ p i
  | Mkdir i -> "mkdir " ^ p i
  | Rename (i, j) -> Printf.sprintf "rename %s %s" (p i) (p j)
  | Link (i, j) -> Printf.sprintf "link %s %s" (p i) (p j)
  | Symlink (i, j) -> Printf.sprintf "symlink %s %s" (p i) (p j)
  | Truncate (i, n) -> Printf.sprintf "truncate %s %d" (p i) n

let gen_ns_op =
  let open QCheck.Gen in
  let path = int_bound (Array.length ns_paths - 1) and slot = int_bound 3 in
  let flags =
    map
      (fun (acc, creat, excl, trunc, dir) ->
        acc lor (if creat then 0o100 else 0) lor (if excl then 0o200 else 0)
        lor (if trunc then 0o1000 else 0) lor if dir then 0o200000 else 0)
      (tup5 (int_bound 2) bool (frequency [ (1, return true); (4, return false) ])
         (frequency [ (1, return true); (4, return false) ])
         (frequency [ (1, return true); (6, return false) ]))
  in
  frequency
    [
      (6, map2 (fun i fl -> Open (i, fl)) path flags);
      (3, map (fun k -> Close k) slot);
      (2, map (fun k -> Read k) slot);
      (3, map2 (fun k n -> Write (k, n)) slot (oneofl [ 1; 4096; 9000 ]));
      (2, map (fun i -> Unlink i) path);
      (2, map (fun i -> Rmdir i) path);
      (2, map (fun i -> Mkdir i) path);
      (2, map2 (fun i j -> Rename (i, j)) path path);
      (2, map2 (fun i j -> Link (i, j)) path path);
      (1, map2 (fun i j -> Symlink (i, j)) path path);
      (1, map2 (fun i n -> Truncate (i, n)) path (oneofl [ 0; 3; 5000 ]));
    ]

let arb_ns_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_ns_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 24) gen_ns_op)

(* Remove [path] and everything below it. *)
let rec ns_rm_rf c path =
  let module L = Apps.Libc in
  if L.unlink c path = -Aster.Errno.eisdir then begin
    let fd = L.openf c path ~flags:0o200000 ~mode:0 in
    if fd >= 0 then begin
      List.iter
        (fun (_, _, name) -> if name <> "." && name <> ".." then ns_rm_rf c (path ^ "/" ^ name))
        (L.getdents c ~fd);
      ignore (L.close c fd)
    end;
    ignore (L.rmdir c path)
  end

(* Run [ops] on a fresh kernel: the transcript, and what went wrong. *)
let run_ns_ops ops =
  let module L = Apps.Libc in
  let transcript = ref [] and wrong = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> wrong := m :: !wrong) fmt in
  let body c =
    (* Touch the user memory the run uses before counting frames. *)
    ignore (L.put_bytes c (Bytes.make ((256 * 1024) - 16) '\000'));
    let buf = L.ualloc c 9000 in
    (L.raw c).Ostd.User.mem_write buf (Bytes.make 9000 'z');
    ignore (L.syscall c Aster.Syscall_nr.sync [||]);
    ignore (Aster.Block.drop_clean ());
    let frames0 = Ostd.Frame.live_handles () in
    let fds = ref [] in
    let fd k = match !fds with [] -> 1000 | l -> List.nth l (k mod List.length l) in
    let p i = ns_paths.(i) in
    let link nr i j = L.syscall c nr [| Int64.of_int (L.put_string c (p i)); Int64.of_int (L.put_string c (p j)) |] in
    List.iter
      (fun op ->
        let r =
          match op with
          | Open (i, flags) ->
            let r = L.openf c (p i) ~flags ~mode:0o644 in
            if r >= 0 then fds := !fds @ [ r ];
            r
          | Close k ->
            let f = fd k in
            fds := List.filter (( <> ) f) !fds;
            L.close c f
          | Read k -> L.read c ~fd:(fd k) ~vaddr:buf ~len:4096
          | Write (k, n) -> L.write c ~fd:(fd k) ~vaddr:buf ~len:n
          | Unlink i -> L.unlink c (p i)
          | Rmdir i -> L.rmdir c (p i)
          | Mkdir i -> L.mkdir c (p i)
          | Rename (i, j) -> L.rename c (p i) (p j)
          | Link (i, j) -> link Aster.Syscall_nr.link i j
          | Symlink (i, j) -> link Aster.Syscall_nr.symlink i j
          | Truncate (i, n) ->
            L.syscall c Aster.Syscall_nr.truncate [| Int64.of_int (L.put_string c (p i)); Int64.of_int n |]
        in
        transcript := Printf.sprintf "%s = %d" (show_ns_op op) r :: !transcript)
      ops;
    List.iter (fun f -> ignore (L.close c f)) !fds;
    ignore (L.syscall c Aster.Syscall_nr.sync [||]);
    List.iter (fail "fsck after the sequence: %s") (Aster.Fsck.check ());
    List.iter (ns_rm_rf c) [ "/tmp/a"; "/tmp/b"; "/ext2/a"; "/ext2/b"; "/dev/a"; "/dev/b" ];
    (match Aster.Vfs.resolve_last ~cwd:(Aster.Vfs.root ()) "/dev/null" with
    | Ok { Aster.Vfs.inode; _ } when inode.Aster.Vfs.fsname <> "devfs" -> ns_rm_rf c "/dev/null"
    | Ok _ | Error _ -> ());
    ignore (L.syscall c Aster.Syscall_nr.sync [||]);
    ignore (Aster.Block.drop_clean ());
    let frames = Ostd.Frame.live_handles () in
    if frames <> frames0 then fail "frames: %d before the sequence, %d after" frames0 frames;
    List.iter (fail "fsck after cleanup: %s") (Aster.Fsck.check ());
    0
  in
  (try
     ignore (boot ());
     let finished = ref false in
     ignore
       (Aster.Process.spawn_kernel_style ~name:"ns-seq" (fun u ->
            let code = body (L.make u) in
            finished := true;
            code));
     Aster.Kernel.run ();
     if not !finished then fail "the sequence did not finish"
   with e -> fail "exception: %s" (Printexc.to_string e));
  let panics = Sim.Stats.get "kernel.panic" in
  if panics <> 0 then fail "kernel.panic = %d" panics;
  (List.rev !transcript, List.rev !wrong)

let prop_ns_sequences =
  QCheck.Test.make ~name:"namespace_sequences" ~count:100 arb_ns_ops (fun ops ->
      let t1, wrong = run_ns_ops ops in
      let t2, _ = run_ns_ops ops in
      if wrong <> [] then QCheck.Test.fail_reportf "%s" (String.concat "\n" wrong)
      else if t1 <> t2 then QCheck.Test.fail_reportf "transcripts differ"
      else true)

(* Ordinary calls that once stopped the kernel: a read through an open
   descriptor of an unlinked /tmp file, rename and link between /tmp and
   /ext2, and rmdir, unlink and link of /dev/null, a devfs inode in a
   ramfs directory. /dev and /tmp share the root mount here, so the
   link is allowed, as on Linux. *)
let test_foreign_inode_calls () =
  let module L = Apps.Libc in
  let module E = Aster.Errno in
  let got = ref [] in
  let code =
    run_user (fun c ->
        let note name r = got := (name, r) :: !got in
        let fd = L.openf c "/tmp/u" ~flags:0o102 ~mode:0o644 in
        ignore (L.write_str c ~fd "hello");
        note "unlink /tmp/u" (L.unlink c "/tmp/u");
        let buf = L.ualloc c 4096 in
        note "pread64 unlinked /tmp/u" (L.pread c ~fd ~vaddr:buf ~len:5 ~off:0);
        note "its bytes" (if Bytes.to_string (L.get_bytes c buf 5) = "hello" then 0 else 1);
        ignore (L.close c fd);
        ignore (L.close c (L.openf c "/tmp/f" ~flags:0o101 ~mode:0o644));
        ignore (L.close c (L.openf c "/ext2/f" ~flags:0o101 ~mode:0o644));
        note "rename /tmp/f /ext2/g" (L.rename c "/tmp/f" "/ext2/g");
        note "rename /ext2/f /tmp/g" (L.rename c "/ext2/f" "/tmp/g");
        let link a b =
          L.syscall c Aster.Syscall_nr.link
            [| Int64.of_int (L.put_string c a); Int64.of_int (L.put_string c b) |]
        in
        note "link /tmp/f /ext2/g" (link "/tmp/f" "/ext2/g");
        note "rmdir /dev/null" (L.rmdir c "/dev/null");
        note "link /dev/null /tmp/n" (link "/dev/null" "/tmp/n");
        note "unlink /tmp/n" (L.unlink c "/tmp/n");
        note "unlink /dev/null" (L.unlink c "/dev/null");
        0)
  in
  check_int "exit" 0 code;
  Alcotest.(check (list (pair string int)))
    "answers"
    [
      ("unlink /tmp/u", 0);
      ("pread64 unlinked /tmp/u", 5);
      ("its bytes", 0);
      ("rename /tmp/f /ext2/g", -E.exdev);
      ("rename /ext2/f /tmp/g", -E.exdev);
      ("link /tmp/f /ext2/g", -E.exdev);
      ("rmdir /dev/null", -E.enotdir);
      ("link /dev/null /tmp/n", 0);
      ("unlink /tmp/n", 0);
      ("unlink /dev/null", 0);
    ]
    (List.rev !got);
  check_int "no panic" 0 (Sim.Stats.get "kernel.panic")

(* A removed cwd: after mkdir d, chdir d, rmdir d and mkdir e, the cwd
   is dead (Linux's IS_DEADDIR). Linux 6.18 answers -ENOENT to getcwd,
   mkdir("y") and open("x", O_CREAT) there, on tmpfs and on ext4, and e
   stays empty. The cwd holds d, so ext2 cannot give d's inode to e
   while it is the cwd, and frees it once the cwd moves away. *)
(* /tmp holds at most half of the boot's frames, tmpfs's default size:
   4,000-byte writes to one file end in a short write at the limit and
   then ENOSPC, where the kernel used to panic out of frames. statfs
   reports the limit and the free pages; an unlink gives them back. *)
let test_tmp_enospc () =
  let module L = Apps.Libc in
  let log = ref [] and frames = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let code =
    run_user (fun c ->
        let sb = L.ualloc c 32 and tmp = L.put_string c "/tmp" in
        let src = L.put_bytes c (Bytes.make 4000 'b') in
        let statfs c =
          ignore (L.syscall c Aster.Syscall_nr.statfs [| Int64.of_int tmp; Int64.of_int sb |]);
          let b = L.get_bytes c sb 32 in
          (Int64.to_int (Bytes.get_int64_le b 16), Int64.to_int (Bytes.get_int64_le b 24))
        in
        let total, free = statfs c in
        note "statfs %d %d" total free;
        frames := [ Ostd.Frame.live_handles () ];
        let fd = L.openf c "/tmp/big" ~flags:0o101 ~mode:0o644 in
        let rec fill bytes =
          match L.write c ~fd ~vaddr:src ~len:4000 with
          | 4000 -> fill (bytes + 4000)
          | n ->
            note "short %d after %d" n bytes;
            note "then %d" (L.write c ~fd ~vaddr:src ~len:4000);
            bytes + n
        in
        let bytes = fill 0 in
        note "bytes %d" bytes;
        note "statfs full %d %d" (fst (statfs c)) (snd (statfs c));
        ignore (L.close c fd);
        ignore (L.unlink c "/tmp/big");
        frames := Ostd.Frame.live_handles () :: !frames;
        note "statfs freed %d %d" (fst (statfs c)) (snd (statfs c));
        let fd = L.openf c "/tmp/again" ~flags:0o101 ~mode:0o644 in
        note "fresh write %d" (L.write c ~fd ~vaddr:src ~len:4000);
        ignore (L.close c fd);
        0)
  in
  check_int "exit" 0 code;
  check_int "no kernel panic" 0 (Sim.Stats.get "kernel.panic");
  let limit = Ostd.Frame.total_frames () / 2 in
  let full = limit * 4096 in
  Alcotest.(check (list string))
    "writes, statfs and frames"
    [
      Printf.sprintf "statfs %d %d" limit limit;
      Printf.sprintf "short %d after %d" (full mod 4000) (full / 4000 * 4000);
      Printf.sprintf "then %d" (-Aster.Errno.enospc);
      Printf.sprintf "bytes %d" full;
      Printf.sprintf "statfs full %d 0" limit;
      Printf.sprintf "statfs freed %d %d" limit limit;
      "fresh write 4000";
    ]
    (List.rev !log);
  check_int "8,192 pages on the default boot" 8192 limit;
  (match !frames with
  | [ after; before ] -> check_int "every frame back after the unlink" before after
  | _ -> Alcotest.fail "frames not sampled")

let test_removed_cwd () =
  let module L = Apps.Libc in
  let module E = Aster.Errno in
  let got = ref [] and fsck = ref [] in
  let code =
    run_user (fun c ->
        List.iter
          (fun root ->
            let note name r = got := (root ^ ": " ^ name, r) :: !got in
            ignore (L.mkdir c (root ^ "/d"));
            ignore (L.chdir c (root ^ "/d"));
            note "rmdir d" (L.rmdir c (root ^ "/d"));
            ignore (L.mkdir c (root ^ "/e"));
            let buf = L.ualloc c 256 in
            note "getcwd" (L.syscall c Aster.Syscall_nr.getcwd [| Int64.of_int buf; 256L |]);
            note "mkdir y" (L.mkdir c "y");
            note "open x O_CREAT" (L.openf c "x" ~flags:0o101 ~mode:0o644);
            let fd = L.openf c (root ^ "/e") ~flags:0 ~mode:0 in
            let names = List.map (fun (_, _, n) -> n) (L.getdents c ~fd) in
            note "entries in e" (List.length (List.filter (fun n -> n <> "." && n <> "..") names));
            ignore (L.close c fd);
            ignore (L.chdir c "/");
            fsck := Aster.Fsck.check () @ !fsck)
          [ "/tmp"; "/ext2" ];
        0)
  in
  check_int "exit" 0 code;
  Alcotest.(check (list (pair string int)))
    "answers"
    (List.concat_map
       (fun root ->
         List.map
           (fun (n, r) -> (root ^ ": " ^ n, r))
           [
             ("rmdir d", 0);
             ("getcwd", -E.enoent);
             ("mkdir y", -E.enoent);
             ("open x O_CREAT", -E.enoent);
             ("entries in e", 0);
           ])
       [ "/tmp"; "/ext2" ])
    (List.rev !got);
  Alcotest.(check (list string)) "fsck once the cwd is /" [] !fsck

(* A rename that replaces a file reclaims it: two 40,000-byte /tmp
   files hold 20 pages, and after one is renamed over the other and the
   result is unlinked, all 20 come back. *)
let test_rename_reclaims_victim () =
  let module L = Apps.Libc in
  let before = ref 0 and held = ref 0 and after = ref 0 in
  let code =
    run_user (fun c ->
        let buf = L.ualloc c 40_000 in
        (L.raw c).Ostd.User.mem_write buf (Bytes.make 40_000 'r');
        ignore (L.put_string c "/tmp/a");
        before := Ostd.Frame.live_handles ();
        List.iter
          (fun path ->
            let fd = L.openf c path ~flags:0o101 ~mode:0o644 in
            ignore (L.write c ~fd ~vaddr:buf ~len:40_000);
            ignore (L.close c fd))
          [ "/tmp/a"; "/tmp/b" ];
        held := Ostd.Frame.live_handles () - !before;
        if L.rename c "/tmp/a" "/tmp/b" <> 0 || L.unlink c "/tmp/b" <> 0 then 1
        else begin
          after := Ostd.Frame.live_handles ();
          0
        end)
  in
  check_int "exit" 0 code;
  check_int "two files hold 20 pages" 20 !held;
  check_int "every page back" !before !after

(* ext2 keeps an unlinked file's blocks while a descriptor holds it,
   and frees them at the last close; the VFS refuses a rename into the
   source's own subtree and a truncate of a directory. fsck stays clean
   after each. *)
let test_ext2_namespace_fsck () =
  let module L = Apps.Libc in
  let results = ref [] in
  let code =
    run_user (fun c ->
        let note r = results := r :: !results in
        let fd = L.openf c "/ext2/u" ~flags:0o102 ~mode:0o644 in
        note (L.unlink c "/ext2/u");
        let buf = L.ualloc c 8192 in
        note (L.write c ~fd ~vaddr:buf ~len:8192);
        note (L.close c fd);
        note (L.syscall c Aster.Syscall_nr.sync [||]);
        note (L.mkdir c "/ext2/d");
        note (L.mkdir c "/ext2/d/s");
        note (L.rename c "/ext2/d" "/ext2/d/s/t");
        ignore (L.close c (L.openf c "/ext2/d/s/x" ~flags:0o101 ~mode:0o644));
        note (L.syscall c Aster.Syscall_nr.truncate [| Int64.of_int (L.put_string c "/ext2/d/s"); 0L |]);
        note (L.syscall c Aster.Syscall_nr.sync [||]);
        0)
  in
  check_int "exit" 0 code;
  Alcotest.(check (list int))
    "answers"
    [ 0; 8192; 0; 0; 0; 0; -Aster.Errno.einval; -Aster.Errno.eisdir; 0 ]
    (List.rev !results);
  Alcotest.(check (list string)) "fsck clean" [] (Aster.Fsck.check ())

let test_fork_wait () =
  let code =
    run_user (fun c ->
        let child = Apps.Libc.fork c (fun uapi ->
            let cc = Apps.Libc.make uapi in
            ignore (Apps.Libc.nanosleep_us cc 50.);
            42)
        in
        if child <= 0 then 1
        else
          match Apps.Libc.waitpid c with
          | Ok (pid, status) when pid = child && status = 42 -> 0
          | Ok _ -> 2
          | Error _ -> 3)
  in
  check_int "exit code" 0 code

let test_fork_cow_isolation () =
  let code =
    run_user (fun c ->
        let buf = Apps.Libc.ualloc c 4096 in
        (Apps.Libc.raw c).Ostd.User.mem_write_u64 buf 111L;
        let _child =
          Apps.Libc.fork c (fun uapi ->
              (* The child sees the parent's value, then overwrites. *)
              let v = uapi.Ostd.User.mem_read_u64 buf in
              uapi.Ostd.User.mem_write_u64 buf 222L;
              if v = 111L then 0 else 1)
        in
        (match Apps.Libc.waitpid c with
        | Ok (_, 0) -> ()
        | _ -> Apps.Libc.exit c 2);
        (* Parent's page must be untouched (COW split). *)
        if (Apps.Libc.raw c).Ostd.User.mem_read_u64 buf = 111L then 0 else 3)
  in
  check_int "exit code" 0 code

let test_exec () =
  Aster.Uprog_registry.register "echo-arg" (fun uapi argv ->
      let c = Apps.Libc.make uapi in
      match argv with
      | [ _; "ok" ] ->
        ignore c;
        7
      | _ -> 1);
  let code =
    run_user (fun c ->
        let child =
          Apps.Libc.fork c (fun uapi ->
              let cc = Apps.Libc.make uapi in
              ignore (Apps.Libc.execve cc "/bin/echo-arg" [ "echo-arg"; "ok" ]);
              99 (* unreachable if exec succeeded *))
        in
        ignore child;
        match Apps.Libc.waitpid c with
        | Ok (_, 7) -> 0
        | Ok (_, s) -> 10 + s
        | Error _ -> 2)
  in
  check_int "exit code" 0 code

let test_pipe_parent_child () =
  let code =
    run_user (fun c ->
        match Apps.Libc.pipe c with
        | Error _ -> 1
        | Ok (rfd, wfd) ->
          let _child =
            Apps.Libc.fork c (fun uapi ->
                let cc = Apps.Libc.make uapi in
                ignore (Apps.Libc.close cc rfd);
                ignore (Apps.Libc.write_str cc ~fd:wfd "ping through the pipe");
                ignore (Apps.Libc.close cc wfd);
                0)
          in
          ignore (Apps.Libc.close c wfd);
          let s = Apps.Libc.read_str c ~fd:rfd ~len:64 in
          ignore (Apps.Libc.close c rfd);
          (match Apps.Libc.waitpid c with Ok _ -> () | Error _ -> ());
          if s = "ping through the pipe" then 0 else 2)
  in
  check_int "exit code" 0 code

let test_ext2_persistence_to_device () =
  let k = boot () in
  let finished = ref false in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"ext2test" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/ext2/data.bin" ~flags:0o101 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd "PERSISTME");
         let r = Apps.Libc.fsync c fd in
         ignore (Apps.Libc.close c fd);
         finished := true;
         if r = 0 then 0 else 1));
  Aster.Kernel.run ();
  check "program ran" true !finished;
  (* After fsync the bytes must be on the raw device, not just cached. *)
  let blk = k.Aster.Kernel.devices.Machine.Board.blk in
  let found = ref false in
  for sector = 0 to 40960 do
    if not !found then begin
      let b = Machine.Virtio_blk.read_backing blk ~sector ~len:512 in
      let s = Bytes.to_string b in
      let rec scan i =
        i + 9 <= String.length s && (String.sub s i 9 = "PERSISTME" || scan (i + 1))
      in
      if scan 0 then found := true
    end
  done;
  check "data reached the device" true !found;
  check "no iommu faults" true (Sim.Stats.get "iommu.fault" = 0)

let test_ext2_bigfile_indirect () =
  let code =
    run_user (fun c ->
        (* 200 KiB spans direct + indirect blocks. *)
        let size = 200 * 1024 in
        let buf = Apps.Libc.ualloc c 8192 in
        let pattern = Bytes.init 8192 (fun i -> Char.chr ((i * 7) mod 256)) in
        (Apps.Libc.raw c).Ostd.User.mem_write buf pattern;
        let fd = Apps.Libc.openf c "/ext2/big" ~flags:0o102 ~mode:0o644 in
        if fd < 0 then 1
        else begin
          let written = ref 0 in
          while !written < size do
            let n = Apps.Libc.write c ~fd ~vaddr:buf ~len:8192 in
            if n <= 0 then Apps.Libc.exit c 2;
            written := !written + n
          done;
          ignore (Apps.Libc.close c fd);
          (* Read back from a random offset crossing the indirect zone. *)
          let fd = Apps.Libc.openf c "/ext2/big" ~flags:0 ~mode:0 in
          let off = 60 * 1024 in
          let n = Apps.Libc.pread c ~fd ~vaddr:buf ~len:4096 ~off in
          ignore (Apps.Libc.close c fd);
          if n <> 4096 then 3
          else begin
            let data = Apps.Libc.get_bytes c buf 4096 in
            let expect i = Char.chr (((off + i) mod 8192 * 7) mod 256) in
            let rec verify i = i >= 4096 || (Bytes.get data i = expect i && verify (i + 1)) in
            if verify 0 then 0 else 4
          end
        end)
  in
  check_int "exit code" 0 code

let test_tcp_loopback () =
  ignore (boot ());
  Apps.Libc.install_child_resolver ();
  let server_ready = ref false in
  let got = ref "" in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"server" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
         ignore (Apps.Libc.bind_inet c ~fd ~port:8080);
         ignore (Apps.Libc.listen c ~fd ~backlog:8);
         server_ready := true;
         let conn = Apps.Libc.accept c ~fd in
         let s = Apps.Libc.read_str c ~fd:conn ~len:64 in
         ignore (Apps.Libc.write_str c ~fd:conn ("echo:" ^ s));
         ignore (Apps.Libc.close c conn);
         0));
  ignore
    (Aster.Process.spawn_kernel_style ~name:"client" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
         let lo = Aster.Packet.ip_of_string "127.0.0.1" in
         let rec wait_connect tries =
           if Apps.Libc.connect_inet c ~fd ~ip:lo ~port:8080 >= 0 then true
           else if tries = 0 then false
           else begin
             ignore (Apps.Libc.nanosleep_us c 100.);
             wait_connect (tries - 1)
           end
         in
         if not (wait_connect 20) then 1
         else begin
           ignore (Apps.Libc.write_str c ~fd "hello tcp");
           got := Apps.Libc.read_str c ~fd ~len:64;
           ignore (Apps.Libc.close c fd);
           0
         end));
  Aster.Kernel.run ();
  check "server started" true !server_ready;
  check_str "echoed" "echo:hello tcp" !got

let test_udp_loopback () =
  ignore (boot ());
  let got = ref "" in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"udp-server" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:2 in
         ignore (Apps.Libc.bind_inet c ~fd ~port:9999);
         let buf = Apps.Libc.ualloc c 4096 in
         let n = Apps.Libc.recvfrom c ~fd ~vaddr:buf ~len:4096 in
         got := Bytes.to_string (Apps.Libc.get_bytes c buf n);
         0));
  ignore
    (Aster.Process.spawn_kernel_style ~name:"udp-client" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:2 in
         let lo = Aster.Packet.ip_of_string "127.0.0.1" in
         let msg = Bytes.of_string "datagram!" in
         let buf = Apps.Libc.put_bytes c msg in
         ignore (Apps.Libc.nanosleep_us c 50.);
         ignore (Apps.Libc.sendto_inet c ~fd ~ip:lo ~port:9999 ~vaddr:buf ~len:(Bytes.length msg));
         0));
  Aster.Kernel.run ();
  check_str "datagram" "datagram!" !got

let test_unix_socket () =
  ignore (boot ());
  let got = ref "" in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"unix-server" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:1 ~typ:1 in
         ignore (Apps.Libc.bind_unix c ~fd ~path:"/tmp/sock");
         ignore (Apps.Libc.listen c ~fd ~backlog:4);
         let conn = Apps.Libc.accept c ~fd in
         got := Apps.Libc.read_str c ~fd:conn ~len:64;
         0));
  ignore
    (Aster.Process.spawn_kernel_style ~name:"unix-client" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:1 ~typ:1 in
         ignore (Apps.Libc.nanosleep_us c 50.);
         if Apps.Libc.connect_unix c ~fd ~path:"/tmp/sock" < 0 then 1
         else begin
           ignore (Apps.Libc.write_str c ~fd "over unix");
           0
         end));
  Aster.Kernel.run ();
  check_str "unix data" "over unix" !got

(* Also from an /ext2 file under the Linux profile, whose zero-copy
   path asks ramfs for page-cache frames the ext2 inode does not have. *)
let test_sendfile_tcp ~profile path () =
  ignore (boot ~profile ());
  let got_len = ref 0 in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"sf-server" (fun uapi ->
         let c = Apps.Libc.make uapi in
         (* Prepare a 8 KiB file. *)
         let fd = Apps.Libc.openf c path ~flags:0o101 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd (String.make 8192 'x'));
         ignore (Apps.Libc.close c fd);
         let sfd = Apps.Libc.socket c ~domain:2 ~typ:1 in
         ignore (Apps.Libc.bind_inet c ~fd:sfd ~port:8088);
         ignore (Apps.Libc.listen c ~fd:sfd ~backlog:4);
         let conn = Apps.Libc.accept c ~fd:sfd in
         let file = Apps.Libc.openf c path ~flags:0 ~mode:0 in
         let n = Apps.Libc.sendfile c ~out_fd:conn ~in_fd:file ~count:8192 in
         ignore (Apps.Libc.close c conn);
         if n = 8192 then 0 else 1));
  ignore
    (Aster.Process.spawn_kernel_style ~name:"sf-client" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
         let lo = Aster.Packet.ip_of_string "127.0.0.1" in
         let rec wait_connect tries =
           if Apps.Libc.connect_inet c ~fd ~ip:lo ~port:8088 >= 0 then true
           else if tries = 0 then false
           else begin
             ignore (Apps.Libc.nanosleep_us c 100.);
             wait_connect (tries - 1)
           end
         in
         if not (wait_connect 20) then 1
         else begin
           let buf = Apps.Libc.ualloc c 16384 in
           let total = ref 0 in
           let continue = ref true in
           while !continue do
             let n = Apps.Libc.read c ~fd ~vaddr:buf ~len:16384 in
             if n <= 0 then continue := false else total := !total + n
           done;
           got_len := !total;
           0
         end));
  Aster.Kernel.run ();
  check_int "received full file" 8192 !got_len

(* A sendfile view outlives its file until the ACK.

   Sendfile queues pinned page-cache slices: the device reads them when
   it stages a segment, and a retransmit reads them again. So the bytes
   must outlive the file. The guest truncates and unlinks it as soon as
   sendfile returns, on a link that drops frames, and the host must
   still receive the file's bytes. Once the ACKs, or a reset, have
   covered the stream, every pin has dropped and every frame handle is
   back. The host reads the file's length and stops, not waiting for
   end of stream: this TCP never resends a lost FIN, so the task could
   wait forever and keep its stack's frames. *)

let pattern len = Bytes.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let views_run ~seed ?abort_after () =
  let size = 256 * 1024 in
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  Sim.Fault.configure ~seed [ ("net.drop", 0.02) ];
  let handles = Ostd.Frame.live_handles () in
  let sink = Buffer.create size in
  let port = 9033 in
  (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port with
  | Error _ -> Alcotest.fail "host listen"
  | Ok l ->
    ignore
      (Ostd.Task.spawn ~name:"host-sink" (fun () ->
           let conn = Aster.Tcp.accept l in
           let buf = Bytes.create 16384 in
           let continue = ref true in
           while !continue && Buffer.length sink < size do
             match Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384 with
             | Ok 0 | Error _ -> continue := false
             | Ok n -> (
               Buffer.add_subbytes sink buf 0 n;
               match abort_after with
               | Some m when Buffer.length sink >= m ->
                 Aster.Tcp.abort conn;
                 continue := false
               | _ -> ())
           done;
           if !continue then Aster.Tcp.close conn)));
  let sent = ref 0 and gone = ref false in
  Apps.Runner.spawn ~name:"guest-sendfile" (fun c ->
      let fd = Apps.Libc.openf c "/tmp/payload" ~flags:0o102 ~mode:0o644 in
      let data = pattern size in
      let written = ref 0 in
      while !written < size do
        let len = min 65536 (size - !written) in
        let b = Bytes.sub data !written len in
        let n = Apps.Libc.write c ~fd ~vaddr:(Apps.Libc.put_bytes c b) ~len in
        if n <= 0 then written := size else written := !written + n
      done;
      ignore (Apps.Libc.lseek c ~fd ~off:0 ~whence:0);
      let sfd = Apps.Libc.socket c ~domain:2 ~typ:1 in
      if Apps.Libc.connect_inet c ~fd:sfd ~ip:Aster.Kernel.host_ip ~port < 0 then 1
      else begin
        let ok = ref true in
        while !ok && !sent < size do
          let n = Apps.Libc.sendfile c ~out_fd:sfd ~in_fd:fd ~count:(size - !sent) in
          if n <= 0 then ok := false else sent := !sent + n
        done;
        gone := Apps.Libc.ftruncate c ~fd ~len:0 = 0 && Apps.Libc.unlink c "/tmp/payload" = 0;
        ignore (Apps.Libc.close c fd);
        ignore (Apps.Libc.close c sfd);
        0
      end);
  Apps.Runner.run ();
  Sim.Fault.disable ();
  (Buffer.contents sink, !sent, !gone, handles)

let check_views_returned ~what handles =
  check_int (what ^ ": every pin dropped") (Sim.Stats.get "net.zc_pin")
    (Sim.Stats.get "net.zc_unpin");
  check (what ^ ": pages were pinned") true (Sim.Stats.get "net.zc_pin" > 0);
  check_int (what ^ ": every frame handle back") handles (Ostd.Frame.live_handles ())

let test_sendfile_views_until_ack () =
  List.iter
    (fun seed ->
      let what = Printf.sprintf "seed %Ld" seed in
      let bytes, sent, gone, handles = views_run ~seed () in
      check_int (what ^ ": sendfile queued the whole file") (256 * 1024) sent;
      check (what ^ ": the file was truncated and unlinked") true gone;
      check (what ^ ": frames were lost and retransmitted") true
        (Sim.Stats.get "degrade.retried.tcp_rto" > 0);
      check (what ^ ": the peer got the file's bytes") true
        (String.equal bytes (Bytes.to_string (pattern (256 * 1024))));
      check_views_returned ~what handles)
    [ 1L; 2L; 3L ]

let test_sendfile_views_reset_mid_stream () =
  List.iter
    (fun seed ->
      let what = Printf.sprintf "seed %Ld" seed in
      let bytes, sent, gone, handles = views_run ~seed ~abort_after:(64 * 1024) () in
      check (what ^ ": the reset cut the stream") true (String.length bytes < 256 * 1024);
      check (what ^ ": what arrived is the file's prefix") true
        (String.equal bytes (Bytes.sub_string (pattern (256 * 1024)) 0 (String.length bytes)));
      check (what ^ ": sendfile queued bytes before the reset") true (sent > 0);
      check (what ^ ": the file was truncated and unlinked") true gone;
      check_views_returned ~what handles)
    [ 1L; 2L; 3L ]

(* A reset cannot unpin a view that a segment in the TX plug still
   reads: the plug flushes after the reset, and the driver stages the
   segment from the view's frames. A kernel task sends a view and aborts
   the connection without leaving the syscall-free context, so its
   segments are still plugged when the reset drops the view's pins. *)
let test_sendfile_view_plugged_at_reset () =
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  let handles = Ostd.Frame.live_handles () in
  let port = 9034 in
  (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port with
  | Error _ -> Alcotest.fail "host listen"
  | Ok l ->
    ignore
      (Ostd.Task.spawn ~name:"host-sink" (fun () ->
           let conn = Aster.Tcp.accept l in
           let buf = Bytes.create 16384 in
           while Result.is_ok (Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384) do
             ()
           done)));
  let cache = Aster.Page_cache.create () in
  let size = 64 * 1024 in
  ignore (Aster.Page_cache.write cache ~pos:0 ~buf:(pattern size) ~boff:0 ~len:size ~room:16);
  let sent = ref 0 in
  ignore
    (Ostd.Task.spawn ~name:"guest-view" (fun () ->
         match Aster.Tcp.connect k.Aster.Kernel.tcp ~dst_ip:Aster.Kernel.host_ip ~dst_port:port with
         | Error _ -> ()
         | Ok conn ->
           sent :=
             Result.value ~default:0
               (Aster.Tcp.send_view conn (Aster.Page_cache.view cache ~pos:0 ~len:size));
           Aster.Tcp.abort conn));
  Apps.Runner.run ();
  Aster.Page_cache.destroy cache;
  check_int "the view was queued" size !sent;
  check "segments were plugged" true (Sim.Stats.get "net.tx_queued" > 0);
  check_int "every pin dropped" (Sim.Stats.get "net.zc_pin") (Sim.Stats.get "net.zc_unpin");
  check_int "every frame handle back" handles (Ostd.Frame.live_handles ())

let test_virtio_net_to_host () =
  let k = boot () in
  let host = Aster.Kernel.attach_host k in
  (* Host echo server on 10.0.2.2:7. *)
  (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port:7 with
  | Error _ -> Alcotest.fail "host listen"
  | Ok listener ->
    ignore
      (Ostd.Task.spawn ~name:"host-echo" (fun () ->
           let conn = Aster.Tcp.accept listener in
           let buf = Bytes.create 256 in
           match Aster.Tcp.recv conn ~buf ~pos:0 ~len:256 with
           | Ok n ->
             ignore (Aster.Tcp.send conn ~buf:(Bytes.sub buf 0 n) ~pos:0 ~len:n);
             Aster.Tcp.close conn
           | Error _ -> ())));
  let got = ref "" in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"guest-client" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
         if Apps.Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port:7 < 0 then 1
         else begin
           ignore (Apps.Libc.write_str c ~fd "across the wire");
           got := Apps.Libc.read_str c ~fd ~len:64;
           0
         end));
  Aster.Kernel.run ();
  check_str "echo over virtio" "across the wire" !got

let test_proc_read () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/proc/version" ~flags:0 ~mode:0 in
        if fd < 0 then 1
        else begin
          let s = Apps.Libc.read_str c ~fd ~len:256 in
          ignore (Apps.Libc.close c fd);
          if String.length s > 0 then 0 else 2
        end)
  in
  check_int "exit code" 0 code

let test_proc_chunked_read_one_snapshot () =
  (* A generator that changes on every call: a reader taking the file
     in 7-byte chunks through one fd must still get one generation,
     not a file torn between many. *)
  let calls = ref 0 in
  let gen () =
    incr calls;
    String.concat "" (List.init 40 (fun _ -> Printf.sprintf "generation %04d\n" !calls))
  in
  let reads = ref [] in
  let code =
    run_user (fun c ->
        Aster.Procfs.register "chunked" gen;
        let read_chunked () =
          let fd = Apps.Libc.openf c "/proc/chunked" ~flags:0 ~mode:0 in
          let b = Buffer.create 1024 in
          let rec go () =
            let s = Apps.Libc.read_str c ~fd ~len:7 in
            if s <> "" then begin
              Buffer.add_string b s;
              go ()
            end
          in
          go ();
          ignore (Apps.Libc.close c fd);
          Buffer.contents b
        in
        let first = read_chunked () in
        let second = read_chunked () in
        reads := [ first; second ];
        0)
  in
  check_int "exit code" 0 code;
  match !reads with
  | [ first; second ] ->
    let one = String.concat "" (List.init 40 (fun _ -> "generation 0001\n")) in
    check_str "the chunked read is the first generation, whole" one first;
    check_str "a new read from offset 0 regenerates"
      (String.concat "" (List.init 40 (fun _ -> "generation 0002\n")))
      second;
    check_int "one generation per read from offset 0" 2 !calls
  | _ -> Alcotest.fail "reads did not finish"

let test_proc_observability_entries () =
  (* The ktrace surface: /proc/ktrace (ring state), /proc/kstat
     (counters + histograms), /proc/faults (chaos quartet). Each must
     exist and render non-empty, with tracing left at its default. *)
  let contents = ref [] in
  let code =
    run_user (fun c ->
        let read_file name =
          let fd = Apps.Libc.openf c ("/proc/" ^ name) ~flags:0 ~mode:0 in
          if fd < 0 then None
          else begin
            let s = Apps.Libc.read_str c ~fd ~len:4096 in
            ignore (Apps.Libc.close c fd);
            Some (name, s)
          end
        in
        match List.filter_map read_file [ "ktrace"; "kstat"; "faults" ] with
        | [ _; _; _ ] as all ->
          contents := all;
          0
        | _ -> 1)
  in
  check_int "exit code" 0 code;
  List.iter
    (fun (name, s) -> check (name ^ " renders non-empty") true (String.length s > 0))
    !contents;
  check "ktrace header reports the ring" true
    (String.starts_with ~prefix:"# ktrace:" (List.assoc "ktrace" !contents));
  check "faults shows the quartet" true
    (String.starts_with ~prefix:"injected" (List.assoc "faults" !contents))

let test_enosys_surface () =
  let code =
    run_user (fun c ->
        (* Syscall 999 is outside the surface; 165 (mount) is in the
           advertised surface but stubbed: both return -ENOSYS. *)
        let a = Apps.Libc.syscall c 165 [| 0L; 0L; 0L |] in
        let b = Apps.Libc.syscall c 999 [||] in
        if a = -38 && b = -38 then 0 else 1)
  in
  check_int "exit code" 0 code;
  check "abi surface >= 210" true (Aster.Syscall_nr.registered_count >= 210);
  check "implemented honestly counted" true (Aster.Syscalls.implemented_count () >= 60)

let test_uname_getpid () =
  let code =
    run_user (fun c ->
        let n = Apps.Libc.uname c in
        if Apps.Libc.getpid c >= 1 && String.length n > 0 then 0 else 1)
  in
  check_int "exit code" 0 code


let test_kill_terminates_sleeper () =
  let code =
    run_user (fun c ->
        let child =
          Apps.Libc.fork c (fun uapi ->
              let cc = Apps.Libc.make uapi in
              ignore (Apps.Libc.nanosleep_us cc 1e6);
              0)
        in
        ignore (Apps.Libc.nanosleep_us c 100.);
        if Apps.Libc.kill c ~pid:child ~signal:15 < 0 then 1
        else
          match Apps.Libc.waitpid c with
          | Ok (pid, status) when pid = child && status = 128 + 15 -> 0
          | Ok (_, s) -> 10 + s
          | Error _ -> 2)
  in
  Alcotest.(check int) "exit" 0 code

let test_sigign_survives_sigterm () =
  let code =
    run_user (fun c ->
        let child =
          Apps.Libc.fork c (fun uapi ->
              let cc = Apps.Libc.make uapi in
              ignore (Apps.Libc.signal_ignore cc 15);
              ignore (Apps.Libc.nanosleep_us cc 500.);
              7)
        in
        ignore (Apps.Libc.nanosleep_us c 100.);
        ignore (Apps.Libc.kill c ~pid:child ~signal:15);
        match Apps.Libc.waitpid c with
        | Ok (_, 7) -> 0
        | Ok (_, s) -> 10 + s
        | Error _ -> 2)
  in
  Alcotest.(check int) "exit" 0 code

let test_sigkill_unignorable () =
  let code =
    run_user (fun c ->
        let child =
          Apps.Libc.fork c (fun uapi ->
              let cc = Apps.Libc.make uapi in
              ignore (Apps.Libc.signal_ignore cc 9);
              ignore (Apps.Libc.nanosleep_us cc 1e6);
              0)
        in
        ignore (Apps.Libc.nanosleep_us c 100.);
        ignore (Apps.Libc.kill c ~pid:child ~signal:9);
        match Apps.Libc.waitpid c with
        | Ok (_, status) when status = 128 + 9 -> 0
        | Ok (_, s) -> 10 + s
        | Error _ -> 2)
  in
  Alcotest.(check int) "exit" 0 code

let test_sigmask_defers_delivery () =
  let code =
    run_user (fun c ->
        (* Block SIGTERM, receive it (stays pending), verify we survive a
           few syscalls, then unblock: next syscall boundary kills us. *)
        let child =
          Apps.Libc.fork c (fun uapi ->
              let cc = Apps.Libc.make uapi in
              ignore (Apps.Libc.sigblock cc 15);
              ignore (Apps.Libc.nanosleep_us cc 300.);
              (* Signal arrived while blocked. *)
              if Apps.Libc.sigpending cc land (1 lsl 14) = 0 then 50
              else begin
                ignore (Apps.Libc.sigunblock cc 15);
                (* Unreachable: delivery fires at the next boundary. *)
                ignore (Apps.Libc.getpid cc);
                51
              end)
        in
        ignore (Apps.Libc.nanosleep_us c 100.);
        ignore (Apps.Libc.kill c ~pid:child ~signal:15);
        match Apps.Libc.waitpid c with
        | Ok (_, status) when status = 128 + 15 -> 0
        | Ok (_, s) -> 10 + s
        | Error _ -> 2)
  in
  Alcotest.(check int) "exit" 0 code

let test_mkfifo_and_lstat () =
  let code =
    run_user (fun c ->
        if Apps.Libc.mkfifo c "/tmp/ff" < 0 then 1
        else begin
          (* lstat must not follow symlinks; on the fifo it reports kind 1. *)
          let sb = Apps.Libc.ualloc c 64 in
          let r =
            Apps.Libc.syscall c Aster.Syscall_nr.lstat
              [| Int64.of_int (Apps.Libc.put_bytes c (Bytes.of_string "/tmp/ff\000"));
                 Int64.of_int sb |]
          in
          if r <> 0 then 2
          else begin
            let st = Aster.Abi.decode_stat (Apps.Libc.get_bytes c sb Aster.Abi.stat_size) in
            ignore (Apps.Libc.symlink c ~target:"/tmp/ff" ~linkpath:"/tmp/lnk2");
            let r2 =
              Apps.Libc.syscall c Aster.Syscall_nr.lstat
                [| Int64.of_int (Apps.Libc.put_bytes c (Bytes.of_string "/tmp/lnk2\000"));
                   Int64.of_int sb |]
            in
            let st2 = Aster.Abi.decode_stat (Apps.Libc.get_bytes c sb Aster.Abi.stat_size) in
            if r2 = 0 && st.Aster.Abi.kind = 1 && st2.Aster.Abi.kind = 10 then 0 else 3
          end
        end)
  in
  Alcotest.(check int) "exit" 0 code

let test_statfs_ext2 () =
  let code =
    run_user (fun c ->
        let sb = Apps.Libc.ualloc c 64 in
        let r =
          Apps.Libc.syscall c Aster.Syscall_nr.statfs
            [| Int64.of_int (Apps.Libc.put_bytes c (Bytes.of_string "/ext2\000"));
               Int64.of_int sb |]
        in
        if r <> 0 then 1
        else begin
          let b = Apps.Libc.get_bytes c sb 32 in
          if Bytes.get_int64_le b 0 = 0xEF53L && Bytes.get_int64_le b 8 = 4096L then 0 else 2
        end)
  in
  Alcotest.(check int) "exit" 0 code

let test_page_cache_metadata () =
  ignore (boot ());
  let ok = ref false in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"pc" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/tmp/pc.bin" ~flags:0o102 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd (String.make 5000 'p'));
         ignore (Apps.Libc.close c fd);
         (match Aster.Vfs.resolve "/tmp/pc.bin" with
         | Ok { Aster.Vfs.inode; _ } -> (
           match Aster.Ramfs.file_cache inode with
           | Some cache ->
             (* Two pages cached, both dirty via the Frame<M> metadata. *)
             ok :=
               Aster.Page_cache.pages cache = 2
               && Aster.Page_cache.dirty_pages cache = 2
               && Aster.Page_cache.page_state cache 0 = Some (true, true)
               && Aster.Page_cache.clean_all cache = 2
               && Aster.Page_cache.dirty_pages cache = 0
           | None -> ())
         | Error _ -> ());
         0));
  Aster.Kernel.run ();
  check "frame metadata tracks page state" true !ok


(* Negative counts, offsets and lengths from user space: every call
   returns -EINVAL as on Linux, none escapes the syscall boundary or
   trips an OSTD range check, and the files stay usable afterwards. A
   2^40-byte read returns the bytes there are, without sizing a host
   buffer by the count. A write longer than its mapped source writes
   up to the first unmapped byte, and a UDP payload longer than an IPv4
   datagram holds is EMSGSIZE; neither sizes a host buffer by the
   count. A read longer than its mapped destination returns what
   reached it and moves the position that far; one that reaches
   nothing is EFAULT and leaves the position. A non-blocking UDP
   recvfrom with nothing queued is EAGAIN. *)
let test_negative_lengths_einval () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let code =
    run_user (fun c ->
        let buf = L.ualloc c 64 in
        let answer want name r =
          if r <> want then wrong := Printf.sprintf "%s = %d" name r :: !wrong
        in
        let expect = answer (-Aster.Errno.einval) in
        let huge = 1 lsl 40 in
        let str s = Int64.of_int (L.put_bytes c (Bytes.of_string (s ^ "\000"))) in
        expect "getrandom count -1"
          (L.syscall c Aster.Syscall_nr.getrandom [| Int64.of_int buf; -1L; 0L |]);
        (match L.pipe c with
        | Error e -> wrong := Printf.sprintf "pipe = %d" e :: !wrong
        | Ok (rd, wr) ->
          ignore (L.write_str c ~fd:wr "pipe!");
          answer 5 "pipe read count 2^40" (L.read c ~fd:rd ~vaddr:buf ~len:huge);
          answer (-Aster.Errno.espipe) "pipe pread64 count 2^40"
            (L.pread c ~fd:rd ~vaddr:buf ~len:huge ~off:0);
          ignore (L.close c rd);
          ignore (L.close c wr));
        let null = L.openf c "/dev/null" ~flags:1 ~mode:0 in
        let udp = L.socket c ~domain:2 ~typ:2 in
        ignore (L.bind_inet c ~fd:udp ~port:5353);
        let lo = Aster.Packet.ip_of_string "127.0.0.1" in
        expect "sendto len -1" (L.sendto_inet c ~fd:udp ~ip:lo ~port:5353 ~vaddr:buf ~len:(-1));
        List.iter
          (fun len ->
            answer (-Aster.Errno.emsgsize) (Printf.sprintf "sendto len %d" len)
              (L.sendto_inet c ~fd:udp ~ip:lo ~port:5353 ~vaddr:buf ~len))
          [ 70_000; huge ];
        expect "recvfrom len -1" (L.recvfrom c ~fd:udp ~vaddr:buf ~len:(-1));
        ignore (L.set_nonblock c ~fd:udp);
        answer (-Aster.Errno.eagain) "O_NONBLOCK UDP recvfrom with nothing queued"
          (L.recvfrom c ~fd:udp ~vaddr:buf ~len:64);
        let ok = ref true in
        (* One mapped page, with the mapping's unmapped guard gap after it. *)
        let page = L.mmap c ~len:4096 in
        let pattern = Bytes.init 4096 (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
        (L.raw c).Ostd.User.mem_write page pattern;
        let back = L.ualloc c 4096 in
        List.iter
          (fun path ->
            let fd = L.openf c path ~flags:0o102 ~mode:0o644 in
            ignore (L.write_str c ~fd "seed");
            let call name r = expect (path ^ " " ^ name) r in
            let dir = Filename.dirname path in
            let dfd = L.openf c dir ~flags:0 ~mode:0 in
            expect (dir ^ " getdents64 count -1")
              (L.syscall c Aster.Syscall_nr.getdents64 [| Int64.of_int dfd; Int64.of_int buf; -1L |]);
            ignore (L.close c dfd);
            ignore (L.symlink c ~target:path ~linkpath:(path ^ ".lnk"));
            call "readlink bufsiz -1"
              (L.syscall c Aster.Syscall_nr.readlink [| str (path ^ ".lnk"); Int64.of_int buf; -1L |]);
            let vec nr cnt = L.syscall c nr [| Int64.of_int fd; Int64.of_int buf; cnt |] in
            call "read count -1" (L.read c ~fd ~vaddr:buf ~len:(-1));
            call "write count -1" (L.write c ~fd ~vaddr:buf ~len:(-1));
            call "pread64 count -1" (L.pread c ~fd ~vaddr:buf ~len:(-1) ~off:0);
            call "pwrite64 count -1" (L.pwrite c ~fd ~vaddr:buf ~len:(-1) ~off:0);
            call "pread64 offset -1" (L.pread c ~fd ~vaddr:buf ~len:4 ~off:(-1));
            call "pwrite64 offset -5" (L.pwrite c ~fd ~vaddr:buf ~len:4 ~off:(-5));
            call "ftruncate -1" (L.ftruncate c ~fd ~len:(-1));
            call "readv iovcnt -1" (vec Aster.Syscall_nr.readv (-1L));
            call "writev iovcnt 1025" (vec Aster.Syscall_nr.writev 1025L);
            call "sendfile count -1" (L.sendfile c ~out_fd:null ~in_fd:fd ~count:(-1));
            ignore (L.lseek c ~fd ~off:0 ~whence:0);
            let wrote = L.write_str c ~fd "payload" in
            ignore (L.lseek c ~fd ~off:0 ~whence:0);
            let size = match L.fstat c fd with Ok st -> st.Aster.Abi.size | Error e -> e in
            ok := !ok && wrote = 7 && size = 7 && L.read_str c ~fd ~len:16 = "payload";
            ignore (L.lseek c ~fd ~off:0 ~whence:0);
            answer 7 (path ^ " read count 2^40") (L.read c ~fd ~vaddr:buf ~len:huge);
            answer 0 (path ^ " read count 2^40 at EOF") (L.read c ~fd ~vaddr:buf ~len:huge);
            answer 4 (path ^ " pread64 count 2^40") (L.pread c ~fd ~vaddr:buf ~len:huge ~off:3);
            answer 0 (path ^ " pread64 count 2^40 past EOF")
              (L.pread c ~fd ~vaddr:buf ~len:huge ~off:4096);
            ok := !ok && Bytes.to_string (L.get_bytes c buf 4) = "load";
            (* Four writes from the one-page mapping, each past its end:
               each copies and writes the mapped page, 4096 bytes. *)
            ignore (L.ftruncate c ~fd ~len:0);
            ignore (L.lseek c ~fd ~off:0 ~whence:0);
            answer 4096 (path ^ " write count 2^40 from one page")
              (L.write c ~fd ~vaddr:page ~len:huge);
            answer 4096 (path ^ " write count 8192 from one page")
              (L.write c ~fd ~vaddr:page ~len:8192);
            answer 4096 (path ^ " pwrite64 count 2^40 from one page")
              (L.pwrite c ~fd ~vaddr:page ~len:huge ~off:8192);
            answer 4096 (path ^ " pwrite64 count 8192 from one page")
              (L.pwrite c ~fd ~vaddr:page ~len:8192 ~off:12288);
            (match L.fstat c fd with
            | Ok st -> answer 16384 (path ^ " size after short writes") st.Aster.Abi.size
            | Error e -> answer 16384 (path ^ " fstat after short writes") e);
            for k = 0 to 3 do
              let n = L.pread c ~fd ~vaddr:back ~len:4096 ~off:(k * 4096) in
              if n <> 4096 || not (Bytes.equal (L.get_bytes c back 4096) pattern) then
                wrong := Printf.sprintf "%s page %d after short writes (%d)" path k n :: !wrong
            done;
            (* Reads into the one-page mapping: what reached user memory
               is the count, and the position moves by that much. *)
            let here () = L.lseek c ~fd ~off:0 ~whence:1 in
            ignore (L.lseek c ~fd ~off:0 ~whence:0);
            answer 4096 (path ^ " read count 8192 into one page")
              (L.read c ~fd ~vaddr:page ~len:8192);
            answer 4096 (path ^ " position after it") (here ());
            ignore (L.lseek c ~fd ~off:0 ~whence:0);
            answer (-Aster.Errno.efault) (path ^ " read count 100 at an unmapped address")
              (L.read c ~fd ~vaddr:(page + 4096) ~len:100);
            answer 0 (path ^ " position after it") (here ());
            answer 4096 (path ^ " pread64 count 8192 into one page")
              (L.pread c ~fd ~vaddr:page ~len:8192 ~off:4096);
            answer (-Aster.Errno.efault) (path ^ " pread64 count 100 at an unmapped address")
              (L.pread c ~fd ~vaddr:(page + 4096) ~len:100 ~off:0);
            ignore (L.close c fd))
          [ "/tmp/neg"; "/ext2/neg" ];
        if !ok then 0 else 1)
  in
  Alcotest.(check (list string)) "every hostile call gets Linux's answer" [] (List.rev !wrong);
  check_int "valid data written and read back" 0 code;
  check_int "no kernel panic" 0 (Sim.Stats.get "kernel.panic");
  Alcotest.(check (list string)) "fsck clean" [] (Aster.Fsck.check ())

(* Reads whose count nothing about the object bounds: /dev/zero,
   /dev/null, a procfs file and getrandom, each with a count far past
   the one mapped page it lands in. Each copies what the page holds and
   returns that, or the file's length, as Linux does (read_iter_zero,
   seq_read, getrandom); none sizes a host buffer by the count, which
   under a 1.5 GB address-space limit raised Out_of_memory out of
   [Kernel.run]. *)
let test_unbounded_read_counts () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let answer want name r =
    if r <> want then wrong := Printf.sprintf "%s = %d, want %d" name r want :: !wrong
  in
  let code =
    run_user (fun c ->
        let count = 0x7ffff000 in
        (* One mapped page, with the mapping's unmapped guard gap after it. *)
        let page = L.mmap c ~len:4096 in
        let small = L.ualloc c 4096 in
        let scribble () = (L.raw c).Ostd.User.mem_write page (Bytes.make 4096 'x') in
        let zeroed name =
          if not (Bytes.equal (L.get_bytes c page 4096) (Bytes.make 4096 '\000')) then
            wrong := (name ^ " left the page unzeroed") :: !wrong
        in
        let zero = L.openf c "/dev/zero" ~flags:0 ~mode:0 in
        scribble ();
        answer 4096 "/dev/zero read" (L.read c ~fd:zero ~vaddr:page ~len:count);
        zeroed "/dev/zero read";
        scribble ();
        answer 4096 "/dev/zero pread64" (L.pread c ~fd:zero ~vaddr:page ~len:count ~off:0);
        zeroed "/dev/zero pread64";
        answer 4096 "/dev/zero read count 2^40" (L.read c ~fd:zero ~vaddr:page ~len:(1 lsl 40));
        ignore (L.close c zero);
        let null = L.openf c "/dev/null" ~flags:0 ~mode:0 in
        answer 0 "/dev/null read" (L.read c ~fd:null ~vaddr:page ~len:count);
        ignore (L.close c null);
        let fd = L.openf c "/proc/meminfo" ~flags:0 ~mode:0 in
        let len = L.read c ~fd ~vaddr:small ~len:4096 in
        ignore (L.close c fd);
        let fd = L.openf c "/proc/meminfo" ~flags:0 ~mode:0 in
        answer len "/proc/meminfo read" (L.read c ~fd ~vaddr:page ~len:count);
        if len <= 0 || not (Bytes.equal (L.get_bytes c page len) (L.get_bytes c small len)) then
          wrong := "/proc/meminfo bytes differ from a 4 KiB read" :: !wrong;
        answer 0 "/proc/meminfo read at EOF" (L.read c ~fd ~vaddr:page ~len:count);
        answer len "/proc/meminfo pread64" (L.pread c ~fd ~vaddr:page ~len:count ~off:0);
        ignore (L.close c fd);
        answer 4096 "getrandom count 2^40"
          (L.syscall c Aster.Syscall_nr.getrandom [| Int64.of_int page; Int64.shift_left 1L 40; 0L |]);
        0)
  in
  Alcotest.(check (list string)) "every unbounded read gets Linux's answer" [] (List.rev !wrong);
  check_int "exit" 0 code;
  check_int "no kernel panic" 0 (Sim.Stats.get "kernel.panic")

let test_proc_pid_status () =
  let code =
    run_user (fun c ->
        let pid = Apps.Libc.getpid c in
        let fd = Apps.Libc.openf c (Printf.sprintf "/proc/%d/status" pid) ~flags:0 ~mode:0 in
        if fd < 0 then 1
        else begin
          let s = Apps.Libc.read_str c ~fd ~len:512 in
          ignore (Apps.Libc.close c fd);
          let has needle =
            let nl = String.length needle and sl = String.length s in
            let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
            scan 0
          in
          if has (Printf.sprintf "Pid:\t%d" pid) && has "Name:" then 0 else 2
        end)
  in
  check_int "exit" 0 code

(* /proc resolves and lists only its own names. The files of /proc/<pid>
   and /proc/kprobe are kept under internal keys ("pid.N.status",
   "kprobe.points"); neither kind opens or appears at the root, even
   after a pid directory has been looked up, while the nested paths
   still read. *)
let test_proc_root_own_names () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let code =
    run_user (fun c ->
        let pid = L.getpid c in
        let reads path =
          let fd = L.openf c path ~flags:0 ~mode:0 in
          fd >= 0
          && begin
            let s = L.read_str c ~fd ~len:512 in
            ignore (L.close c fd);
            s <> ""
          end
        in
        if not (reads (Printf.sprintf "/proc/%d/status" pid)) then
          wrong := "/proc/<pid>/status does not read" :: !wrong;
        if not (reads "/proc/kprobe/programs") then
          wrong := "/proc/kprobe/programs does not read" :: !wrong;
        List.iter
          (fun key ->
            let r = L.openf c ("/proc/" ^ key) ~flags:0 ~mode:0 in
            if r <> -Aster.Errno.enoent then
              wrong := Printf.sprintf "open /proc/%s = %d" key r :: !wrong)
          [ "kprobe.programs"; "kprobe.points"; Printf.sprintf "pid.%d.status" pid ];
        let fd = L.openf c "/proc" ~flags:0 ~mode:0 in
        List.iter
          (fun (_, _, name) ->
            if String.starts_with ~prefix:"pid." name || String.starts_with ~prefix:"kprobe." name
            then wrong := ("/proc lists " ^ name) :: !wrong)
          (L.getdents c ~fd);
        ignore (L.close c fd);
        0)
  in
  check_int "exit" 0 code;
  Alcotest.(check (list string)) "only top-level names at /proc" [] (List.rev !wrong)

(* A directory on ext2 that loses its only entry gives its block back:
   mkdir, create a file in it, unlink the file and sync, then fsck finds
   no block marked used that nothing claims. *)
let test_ext2_dir_shrink_frees_blocks () =
  let module L = Apps.Libc in
  let code =
    run_user (fun c ->
        if L.mkdir c "/ext2/d" <> 0 then 1
        else begin
          let fd = L.openf c "/ext2/d/f" ~flags:0o102 ~mode:0o644 in
          if fd < 0 then 2
          else begin
            ignore (L.close c fd);
            if L.unlink c "/ext2/d/f" <> 0 then 3
            else if L.syscall c Aster.Syscall_nr.sync [||] <> 0 then 4
            else 0
          end
        end)
  in
  check_int "exit" 0 code;
  Alcotest.(check (list string)) "fsck clean" [] (Aster.Fsck.check ())

(* The sleep syscalls validate their request before arming a timer, as
   Linux's timespec64_valid: a negative second count or a nanosecond
   count outside [0, 999,999,999] is EINVAL. clock_nanosleep reads its
   request from its third argument, sleeps relative or until a time on
   the realtime or monotonic clock (TIMER_ABSTIME), and answers EINVAL
   for a clock it does not implement. *)
let sleep_call ?(nr = Aster.Syscall_nr.nanosleep) ?(clock = 1) ?(flags = 0) ~sec ~nsec () =
  let module L = Apps.Libc in
  let result = ref 0 and slept = ref 0 in
  let code =
    run_user (fun c ->
        let ts = L.put_bytes c (Aster.Abi.encode_timespec ~sec ~nsec) in
        let t0 = Sim.Time.now () in
        result :=
          if nr = Aster.Syscall_nr.nanosleep then L.syscall c nr [| Int64.of_int ts; 0L |]
          else L.syscall c nr [| Int64.of_int clock; Int64.of_int flags; Int64.of_int ts; 0L |];
        slept := Sim.Time.now () - t0;
        0)
  in
  check_int "exit" 0 code;
  (!result, Sim.Time.to_us !slept)

let test_nanosleep_negative_sec () =
  let r, _ = sleep_call ~sec:(-1L) ~nsec:0L () in
  check_int "nanosleep tv_sec = -1" (-Aster.Errno.einval) r

let test_nanosleep_bad_nsec () =
  let r, _ = sleep_call ~sec:0L ~nsec:1_000_000_000L () in
  check_int "nanosleep tv_nsec = 1e9" (-Aster.Errno.einval) r;
  let r, _ = sleep_call ~sec:0L ~nsec:(-1L) () in
  check_int "nanosleep tv_nsec = -1" (-Aster.Errno.einval) r

let test_clock_nanosleep_relative () =
  let r, us = sleep_call ~nr:Aster.Syscall_nr.clock_nanosleep ~sec:0L ~nsec:500_000L () in
  check_int "clock_nanosleep(CLOCK_MONOTONIC, 0, 500 us)" 0 r;
  check "slept 500 us" true (us >= 500. && us < 600.)

let test_clock_nanosleep_abstime () =
  ignore (boot ());
  (* The monotonic clock reads virtual time since boot: 2 ms from now. *)
  let target = Int64.of_int ((Aster.Ktime.monotonic_ns () + 2_000_000) / 1000) in
  let r, us =
    sleep_call ~nr:Aster.Syscall_nr.clock_nanosleep ~flags:1 ~sec:0L
      ~nsec:(Int64.mul target 1000L) ()
  in
  check_int "clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME)" 0 r;
  check "slept until the target" true (us >= 1000. && us <= 2100.);
  let r, us =
    sleep_call ~nr:Aster.Syscall_nr.clock_nanosleep ~flags:1 ~sec:0L ~nsec:1L ()
  in
  check_int "an absolute time already past returns at once" 0 r;
  check "did not sleep" true (us < 50.)

let test_clock_nanosleep_bad_clock () =
  let r, us =
    sleep_call ~nr:Aster.Syscall_nr.clock_nanosleep ~clock:2 ~sec:0L ~nsec:500_000L ()
  in
  check_int "clock_nanosleep(CLOCK_PROCESS_CPUTIME_ID)" (-Aster.Errno.einval) r;
  check "did not sleep" true (us < 50.);
  let r, _ = sleep_call ~nr:Aster.Syscall_nr.clock_nanosleep ~sec:(-1L) ~nsec:0L () in
  check_int "clock_nanosleep tv_sec = -1" (-Aster.Errno.einval) r

let test_cfs_nice_weights () =
  (* A nice -5 task should make clearly more progress than a nice +5
     task over the same span of virtual time. *)
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  Aster.Sched_policy.install ();
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();
  let progress = Hashtbl.create 2 in
  let spin tag () =
    for _ = 1 to 300 do
      Hashtbl.replace progress tag (1 + Option.value ~default:0 (Hashtbl.find_opt progress tag));
      Sim.Clock.charge 2000;
      Ostd.Task.yield_now ()
    done
  in
  let fast = Ostd.Task.spawn ~name:"fast" (spin "fast") in
  let slow = Ostd.Task.spawn ~name:"slow" (spin "slow") in
  Ostd.Task.set_nice fast (-5);
  Ostd.Task.set_nice slow 5;
  Ostd.Task.run_until (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt progress "fast") >= 300);
  let f = Option.value ~default:0 (Hashtbl.find_opt progress "fast") in
  let s = Option.value ~default:1 (Hashtbl.find_opt progress "slow") in
  check "fast finished" true (f >= 300);
  check "niced-down task got more cpu" true (f > s + 50)

let test_block_writeback_throttling () =
  ignore (boot ());
  let finished = ref false in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"bigwrite" (fun uapi ->
         let c = Apps.Libc.make uapi in
         (* Write ~6 MiB to ext2: crosses the background-writeback
            threshold, so the flusher must run while we write. *)
         let fd = Apps.Libc.openf c "/ext2/bigfile" ~flags:0o102 ~mode:0o644 in
         let buf = Apps.Libc.ualloc c 65536 in
         for _ = 1 to 96 do
           ignore (Apps.Libc.write c ~fd ~vaddr:buf ~len:65536)
         done;
         ignore (Apps.Libc.close c fd);
         finished := true;
         0));
  Aster.Kernel.run ();
  check "writer finished" true !finished;
  check "background writeback ran" true
    (Aster.Block.dirty_blocks () < 1536);
  check "device received writes" true (Aster.Virtio_blk_drv.in_flight () = 0)

let test_fsync_only_flushes_that_file () =
  ignore (boot ());
  ignore
    (Aster.Process.spawn_kernel_style ~name:"two-files" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fa = Apps.Libc.openf c "/ext2/a" ~flags:0o102 ~mode:0o644 in
         let fb = Apps.Libc.openf c "/ext2/b" ~flags:0o102 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd:fa "aaaa");
         ignore (Apps.Libc.write_str c ~fd:fb "bbbb");
         ignore (Apps.Libc.fsync c fa);
         0));
  Aster.Kernel.run ();
  (* b's data block may stay dirty; a's must be clean. Weak but real:
     after fsync(a) there must be *some* dirty block left from b. *)
  check "file b still dirty in cache" true (Aster.Block.dirty_blocks () > 0)

(* Write a patterned file, evict the clean cache, and read it back
   sequentially through the batched pipeline. Data must be exact and the
   blk.* counters must show merging + readahead actually happened. *)
let seq_read_after_cold_cache c =
  let size = 512 * 1024 in
  let chunk = 65536 in
  let buf = Apps.Libc.ualloc c chunk in
  let pattern = Bytes.init chunk (fun i -> Char.chr ((i * 13) mod 256)) in
  (Apps.Libc.raw c).Ostd.User.mem_write buf pattern;
  let fd = Apps.Libc.openf c "/ext2/batch.dat" ~flags:0o102 ~mode:0o644 in
  if fd < 0 then 1
  else begin
    let written = ref 0 in
    while !written < size do
      let n = Apps.Libc.write c ~fd ~vaddr:buf ~len:chunk in
      if n <= 0 then Apps.Libc.exit c 2;
      written := !written + n
    done;
    ignore (Apps.Libc.fsync c fd);
    ignore (Apps.Libc.close c fd);
    ignore (Aster.Block.drop_clean ());
    let fd = Apps.Libc.openf c "/ext2/batch.dat" ~flags:0 ~mode:0 in
    let got = ref 0 in
    let bad = ref false in
    let continue = ref true in
    while !continue do
      let n = Apps.Libc.read c ~fd ~vaddr:buf ~len:chunk in
      if n <= 0 then continue := false
      else begin
        let data = Apps.Libc.get_bytes c buf n in
        for i = 0 to n - 1 do
          if Bytes.get data i <> Char.chr (((!got + i) mod chunk * 13) mod 256) then bad := true
        done;
        got := !got + n
      end
    done;
    ignore (Apps.Libc.close c fd);
    if !bad then 3 else if !got <> size then 4 else 0
  end

let test_batched_seq_read () =
  let code = run_user seq_read_after_cold_cache in
  check_int "exit code" 0 code;
  check "bios were merged into chains" true (Sim.Stats.get "blk.merge" > 0);
  check "batches were issued" true (Sim.Stats.get "blk.batch" > 0);
  check "readahead produced demand hits" true (Sim.Stats.get "blk.readahead.hit" > 0);
  check "no mid-batch splits on a clean device" true (Sim.Stats.get "blk.batch_split" = 0);
  (* The doorbell/IRQ economy: far fewer rings than 4 KiB blocks moved
     (128 cold read + 128 writeback). *)
  check "doorbells well under one per block" true (Sim.Stats.get "blk.doorbell" < 128)

(* Readahead maps and submits only the part of its window no earlier
   readahead of the stream covered, so what it prefetches must be
   exactly what re-mapping the whole window on every step gives. A
   256-block /ext2 file is read back by 4 KiB preads from a cold cache,
   straight through and with the clean cache dropped at the midpoint,
   and the readahead counters are pinned to the full re-map's. Without
   the block cache's epoch, the window's blocks the drop evicted would
   not be prefetched again, and each would be a demand miss. *)
let scan_blocks = 256

let scan_block b = Bytes.init 4096 (fun i -> Char.chr (((b * 31) + i) land 0xff))

let readahead_counters () =
  List.map Sim.Stats.get [ "blk.readahead.issued"; "blk.readahead.hit"; "blk.readahead.miss" ]

(* Returns the blocks read back wrong and the counters' growth over the
   scan. *)
let cold_pread_scan ?drop_at () =
  let out = ref (-1, []) in
  let code =
    run_user (fun c ->
        let module L = Apps.Libc in
        let bs = 4096 in
        let buf = L.ualloc c bs in
        let fd = L.openf c "/ext2/scan.dat" ~flags:0o102 ~mode:0o644 in
        for b = 0 to scan_blocks - 1 do
          (L.raw c).Ostd.User.mem_write buf (scan_block b);
          if L.pwrite c ~fd ~vaddr:buf ~len:bs ~off:(b * bs) <> bs then L.exit c 2
        done;
        ignore (L.fsync c fd);
        ignore (Aster.Block.drop_clean ());
        let before = readahead_counters () in
        let bad = ref 0 in
        for b = 0 to scan_blocks - 1 do
          if drop_at = Some b then ignore (Aster.Block.drop_clean ());
          let n = L.pread c ~fd ~vaddr:buf ~len:bs ~off:(b * bs) in
          if n <> bs || not (Bytes.equal (L.get_bytes c buf bs) (scan_block b)) then incr bad
        done;
        out := (!bad, List.map2 ( - ) (readahead_counters ()) before);
        ignore (L.close c fd);
        0)
  in
  check_int "exit code" 0 code;
  !out

let test_readahead_prefetch_set () =
  let bad, counts = cold_pread_scan () in
  check_int "every block read back" 0 bad;
  Alcotest.(check (list int)) "issued, hit, miss: straight scan" [ 255; 255; 1 ] counts;
  let bad, counts = cold_pread_scan ~drop_at:(scan_blocks / 2) () in
  check_int "every block read back after the drop" 0 bad;
  Alcotest.(check (list int)) "issued, hit, miss: drop at the midpoint" [ 286; 254; 2 ] counts

(* The kernel staging buffer is never shared. Two writers each write,
   then read back, their own patterned 4 KiB records in their own /ext2
   files, while a third process commits the journal and drops the clean
   cache in a loop: a writer sleeps at the commit gate, or on a cold
   block read, holding the buffer, and the other writer's call must
   then copy through a buffer of its own. *)
let test_staging_buffer_exclusive () =
  ignore (boot ());
  let module L = Apps.Libc in
  let bs = 4096 and records = 48 in
  let record w r = Bytes.init bs (fun i -> Char.chr (((w * 97) + (r * 31) + i) land 0xff)) in
  let bad = Array.make 2 (-1) in
  let finished = ref 0 in
  let held = ref false in
  let writer w uapi =
    let c = L.make uapi in
    let buf = L.ualloc c bs in
    let fd = L.openf c (Printf.sprintf "/ext2/stage%d.dat" w) ~flags:0o102 ~mode:0o644 in
    let errs = ref 0 in
    (* Cached file I/O never sleeps on its own, so each record yields
       to let the committer in. *)
    for r = 0 to records - 1 do
      (L.raw c).Ostd.User.mem_write buf (record w r);
      if L.pwrite c ~fd ~vaddr:buf ~len:bs ~off:(r * bs) <> bs then incr errs;
      ignore (L.sched_yield c)
    done;
    for r = 0 to records - 1 do
      let n = L.pread c ~fd ~vaddr:buf ~len:bs ~off:(r * bs) in
      if n <> bs || not (Bytes.equal (L.get_bytes c buf bs) (record w r)) then incr errs;
      ignore (L.sched_yield c)
    done;
    ignore (L.close c fd);
    bad.(w) <- !errs;
    incr finished;
    0
  in
  let committer uapi =
    let c = L.make uapi in
    let fd = L.openf c "/ext2/stage-sync.dat" ~flags:0o102 ~mode:0o644 in
    let rounds = ref 0 in
    while !finished < 2 && !rounds < 10_000 do
      ignore (L.fsync c fd);
      (* Back from a commit: a writer that slept through it holds the
         buffer now. *)
      held := !held || Aster.Syscalls.staging_busy ();
      ignore (Aster.Block.drop_clean ());
      incr rounds
    done;
    ignore (L.close c fd);
    0
  in
  List.iteri
    (fun i body -> ignore (Aster.Process.spawn_kernel_style ~name:(Printf.sprintf "stage%d" i) body))
    [ writer 0; writer 1; committer ];
  Aster.Kernel.run ();
  check "both writers finished" true (!finished = 2);
  check "a writer slept holding the staging buffer" true !held;
  check_int "writer 0: every record read back" 0 bad.(0);
  check_int "writer 1: every record read back" 0 bad.(1);
  check "nothing holds the staging buffer at the end" false (Aster.Syscalls.staging_busy ())

(* A contained EIO inside the fs read releases the staging buffer: the
   cold pread fails with -EIO, and once the fault clears, reads and
   writes through the buffer return the right bytes. *)
let test_staging_buffer_eio () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let code =
    run_user (fun c ->
        let bs = 4096 in
        let buf = L.ualloc c bs in
        let fd = L.openf c "/ext2/stage-eio.dat" ~flags:0o102 ~mode:0o644 in
        let put r off =
          (L.raw c).Ostd.User.mem_write buf (scan_block r);
          if L.pwrite c ~fd ~vaddr:buf ~len:bs ~off <> bs then
            wrong := Printf.sprintf "pwrite of record %d" r :: !wrong
        in
        let get name r off =
          let n = L.pread c ~fd ~vaddr:buf ~len:bs ~off in
          if n <> bs || not (Bytes.equal (L.get_bytes c buf bs) (scan_block r)) then
            wrong := Printf.sprintf "%s: pread of record %d = %d" name r n :: !wrong
        in
        for r = 0 to 3 do
          put r (r * bs)
        done;
        ignore (L.fsync c fd);
        ignore (Aster.Block.drop_clean ());
        Sim.Fault.configure ~seed:5L [ ("blk.io_error", 1.0) ];
        let r = L.pread c ~fd ~vaddr:buf ~len:bs ~off:0 in
        Sim.Fault.disable ();
        if r <> -Aster.Errno.eio then wrong := Printf.sprintf "cold pread = %d" r :: !wrong;
        if Aster.Syscalls.staging_busy () then wrong := "EIO left the buffer held" :: !wrong;
        for r = 0 to 3 do
          get "after the fault" r (r * bs)
        done;
        put 9 (4 * bs);
        get "rewritten" 9 (4 * bs);
        ignore (L.lseek c ~fd ~off:(4 * bs) ~whence:0);
        let n = L.read c ~fd ~vaddr:buf ~len:bs in
        if n <> bs || not (Bytes.equal (L.get_bytes c buf bs) (scan_block 9)) then
          wrong := Printf.sprintf "read after the fault = %d" n :: !wrong;
        ignore (L.close c fd);
        0)
  in
  Alcotest.(check (list string)) "EIO contained, buffer released" [] (List.rev !wrong);
  check_int "exit" 0 code;
  check "the fault fired" true (Sim.Stats.get "fault.injected.blk.io_error" > 0)

(* A task killed asleep while holding the staging buffer is never
   resumed, so it never gives the buffer back; the buffer is free once
   its holder is dead. A child blocks on its fifth 64 KiB write into a
   full 256 KiB pipe, holding the buffer, and is killed; the pipe still
   holds the four writes, and a later write and read through the
   buffer are right. *)
let test_staging_buffer_dead_holder () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let chunk = 65_536 in
  let block k = Bytes.init chunk (fun i -> Char.chr (((k * 59) + (i * 3)) land 0xff)) in
  let code =
    run_user (fun c ->
        match L.pipe c with
        | Error e -> 10 + e
        | Ok (rd, wr) ->
          let child =
            L.fork c (fun uapi ->
                let cc = L.make uapi in
                let buf = L.ualloc cc chunk in
                for k = 0 to 4 do
                  (L.raw cc).Ostd.User.mem_write buf (block k);
                  ignore (L.write cc ~fd:wr ~vaddr:buf ~len:chunk)
                done;
                0)
          in
          ignore (L.nanosleep_us c 1000.);
          if not (Aster.Syscalls.staging_busy ()) then
            wrong := "the blocked writer does not hold the buffer" :: !wrong;
          ignore (L.kill c ~pid:child ~signal:9);
          (match L.waitpid c with
          | Ok (pid, status) when pid = child && status = 128 + 9 -> ()
          | Ok (_, s) -> wrong := Printf.sprintf "child exit status %d" s :: !wrong
          | Error e -> wrong := Printf.sprintf "waitpid = %d" e :: !wrong);
          if Aster.Syscalls.staging_busy () then
            wrong := "the killed writer still holds the buffer" :: !wrong;
          let buf = L.ualloc c chunk in
          let read_block name k =
            let n = L.read c ~fd:rd ~vaddr:buf ~len:chunk in
            if n <> chunk || not (Bytes.equal (L.get_bytes c buf chunk) (block k)) then
              wrong := Printf.sprintf "%s: read = %d or wrong bytes" name n :: !wrong
          in
          for k = 0 to 3 do
            read_block (Printf.sprintf "write %d" k) k
          done;
          (L.raw c).Ostd.User.mem_write buf (block 9);
          let n = L.write c ~fd:wr ~vaddr:buf ~len:chunk in
          if n <> chunk then wrong := Printf.sprintf "later write = %d" n :: !wrong;
          (L.raw c).Ostd.User.mem_write buf (Bytes.make chunk 'x');
          read_block "later write" 9;
          0)
  in
  Alcotest.(check (list string)) "the dead holder's buffer is free" [] (List.rev !wrong);
  check_int "exit" 0 code;
  check "nothing holds the staging buffer at the end" false (Aster.Syscalls.staging_busy ())

(* getdents64 returns whole entries only, as Linux's filldir64 does: a
   count smaller than the next entry is EINVAL, and a count that holds
   one entry but not two returns one entry per call. *)
let test_getdents_whole_entries () =
  let module L = Apps.Libc in
  let sizes = ref [] and listing = Buffer.create 64 in
  let code =
    run_user (fun c ->
        ignore (L.mkdir c "/tmp/dents");
        List.iter
          (fun n -> ignore (L.close c (L.openf c ("/tmp/dents/" ^ n) ~flags:0o101 ~mode:0o644)))
          [ "alpha"; "beta"; "gamma" ];
        let dfd = L.openf c "/tmp/dents" ~flags:0 ~mode:0 in
        let buf = L.ualloc c 4096 in
        let getdents count =
          L.syscall c Aster.Syscall_nr.getdents64
            [| Int64.of_int dfd; Int64.of_int buf; Int64.of_int count |]
        in
        let small = getdents 5 in
        let rec go k =
          let n = getdents 16 in
          sizes := n :: !sizes;
          if n > 0 then begin
            Buffer.add_bytes listing (L.get_bytes c buf n);
            if k < 8 then go (k + 1)
          end
        in
        go 0;
        ignore (L.close c dfd);
        small)
  in
  check_int "count 5 is EINVAL" (-Aster.Errno.einval) code;
  let entries = Aster.Abi.decode_dirents (Buffer.to_bytes listing) in
  Alcotest.(check (list string)) "count 16: . and .., then every entry once"
    [ "."; ".."; "alpha"; "beta"; "gamma" ]
    (match List.map (fun (_, _, name) -> name) entries with
    | "." :: ".." :: rest -> "." :: ".." :: List.sort compare rest
    | names -> names);
  (* An entry is a 10-byte header and its name. *)
  Alcotest.(check (list int)) "count 16: one whole entry per call, then 0"
    (List.map (fun (_, _, name) -> 10 + String.length name) entries @ [ 0 ])
    (List.rev !sizes)

(* getdents64 lists [.] and [..] ahead of a directory's entries, both
   DT_DIR: [.] with the directory's inode number, [..] with its
   parent's, a file system's root its own parent; a directory renamed
   under another parent lists the new one, and a removed directory
   answers -ENOENT. Linux 6.18 gives these answers on tmpfs and ext4
   (ext4 lists the dots in its hash order, where ext2, as here, lists
   them first). *)
let test_getdents_dots () =
  let module L = Apps.Libc in
  let got = ref [] in
  let code =
    run_user (fun c ->
        let ino path = match L.stat c path with Ok st -> st.Aster.Abi.ino | Error e -> -e in
        let listing path =
          let fd = L.openf c path ~flags:0o200000 ~mode:0 in
          let entries = L.getdents c ~fd in
          ignore (L.close c fd);
          entries
        in
        (* The first two entries, each checked against stat. *)
        let dots path parent =
          let first_two =
            match listing path with
            | (i, k, ".") :: (j, l, "..") :: _ -> i = ino path && k = 4 && j = ino parent && l = 4
            | _ -> false
          in
          got := (path, first_two) :: !got
        in
        List.iter
          (fun (root, parent) ->
            ignore (L.mkdir c (root ^ "/d"));
            ignore (L.mkdir c (root ^ "/d/sub"));
            ignore (L.close c (L.openf c (root ^ "/d/f") ~flags:0o101 ~mode:0o644));
            dots root parent;
            dots (root ^ "/d") root;
            dots (root ^ "/d/sub") (root ^ "/d");
            got :=
              (root ^ "/d/sub lists only the dots",
               List.map (fun (_, _, n) -> n) (listing (root ^ "/d/sub")) = [ "."; ".." ])
              :: !got;
            ignore (L.mkdir c (root ^ "/mv"));
            ignore (L.mkdir c (root ^ "/mv/inner"));
            let fd = L.openf c (root ^ "/mv/inner") ~flags:0o200000 ~mode:0 in
            ignore (L.rename c (root ^ "/mv/inner") (root ^ "/d/sub/inner"));
            got :=
              (root ^ " renamed directory's ..",
               match L.getdents c ~fd with
               | _ :: (j, _, "..") :: _ -> j = ino (root ^ "/d/sub")
               | _ -> false)
              :: !got;
            ignore (L.close c fd);
            ignore (L.mkdir c (root ^ "/gone"));
            let fd = L.openf c (root ^ "/gone") ~flags:0o200000 ~mode:0 in
            ignore (L.rmdir c (root ^ "/gone"));
            let buf = L.ualloc c 256 in
            got :=
              (root ^ " removed directory",
               L.syscall c Aster.Syscall_nr.getdents64 [| Int64.of_int fd; Int64.of_int buf; 256L |]
               = -Aster.Errno.enoent)
              :: !got;
            ignore (L.close c fd))
          (* /tmp is a directory of the root file system, /ext2 a mount. *)
          [ ("/tmp", "/"); ("/ext2", "/ext2") ];
        dots "/" "/";
        dots "/proc" "/proc";
        0)
  in
  check_int "exit" 0 code;
  Alcotest.(check (list string)) "every answer as Linux's" []
    (List.filter_map (fun (what, ok) -> if ok then None else Some what) (List.rev !got))

(* The two copy loops at the chunk boundary. Counts around the staging
   buffer's 64 KiB and one of several chunks go through write, read,
   pwrite64 and pread64 on /tmp and /ext2, checked byte for byte and
   position by position against a model of the file. A stream read
   waits for its first chunk only: a non-blocking read of a stream
   holding 200,000 bytes returns all of them in one call, and a
   blocking read returns what is there. A 1 MiB write to /dev/null and
   a 1 MiB pread64 of a cached /tmp file each allocate less than two
   chunks' worth of host words, where a buffer of the count would take
   131,072, and so does a 64 KiB getrandom, which draws once per byte
   (a boxed generator state made it 393,334). *)
(* readv is one read, as on Linux: only its first iovec may wait. With
   10 bytes queued on a pipe and on a unix socketpair, a blocking readv
   of two 10-byte iovecs returns 10; the second iovec must not wait for
   bytes no one will send. Each case runs in its own process, and the
   run stops after a virtual second, so a readv that waits fails its
   case instead of hanging the test. *)
let test_readv_one_read () =
  let module L = Apps.Libc in
  ignore (boot ());
  let got = ref [] and running = ref 0 in
  let case name open_pair =
    incr running;
    ignore
      (Aster.Process.spawn_kernel_style ~name (fun uapi ->
           let c = L.make uapi in
           let rd, wr = open_pair c in
           let src = L.put_bytes c (Bytes.of_string "0123456789") in
           let dst = L.ualloc c 20 in
           let iov = Bytes.create 32 in
           Bytes.set_int64_le iov 0 (Int64.of_int dst);
           Bytes.set_int64_le iov 8 10L;
           Bytes.set_int64_le iov 16 (Int64.of_int (dst + 10));
           Bytes.set_int64_le iov 24 10L;
           let iov_ptr = L.put_bytes c iov in
           ignore (L.write c ~fd:wr ~vaddr:src ~len:10);
           let n = L.syscall c Aster.Syscall_nr.readv [| Int64.of_int rd; Int64.of_int iov_ptr; 2L |] in
           got := (name, n, Bytes.to_string (L.get_bytes c dst 10)) :: !got;
           decr running;
           0))
  in
  case "pipe" (fun c -> Result.get_ok (L.pipe c));
  case "socketpair" (fun c ->
      let sv = L.ualloc c 8 in
      ignore (L.syscall c Aster.Syscall_nr.socketpair [| 1L; 1L; 0L; Int64.of_int sv |]);
      let fds = L.get_bytes c sv 8 in
      (Int32.to_int (Bytes.get_int32_le fds 0), Int32.to_int (Bytes.get_int32_le fds 4)));
  let cap = Sim.Time.now () + Sim.Time.of_us 1e6 in
  Aster.Kernel.run_until (fun () -> !running = 0 || Sim.Time.now () >= cap);
  Alcotest.(check (list (triple string int string)))
    "each readv returns the 10 queued bytes"
    [ ("pipe", 10, "0123456789"); ("socketpair", 10, "0123456789") ]
    (List.sort compare !got)

let test_copy_chunks () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let answer want name r =
    if r <> want then wrong := Printf.sprintf "%s = %d, want %d" name r want :: !wrong
  in
  let words = ref [] in
  let code =
    run_user (fun c ->
        let mib = 1 lsl 20 in
        let src = L.ualloc c mib and dst = L.ualloc c mib in
        let pattern seed n =
          Bytes.init n (fun i -> Char.chr (((i * 7) + (i lsr 9) + seed) land 0xff))
        in
        let put b = (L.raw c).Ostd.User.mem_write src b in
        let landed name want =
          if not (Bytes.equal (L.get_bytes c dst (Bytes.length want)) want) then
            wrong := (name ^ ": wrong bytes") :: !wrong
        in
        List.iter
          (fun path ->
            let fd = L.openf c path ~flags:0o102 ~mode:0o644 in
            let model = ref Bytes.empty in
            let store off b =
              let size = Int.max (Bytes.length !model) (off + Bytes.length b) in
              let m = Bytes.make size '\000' in
              Bytes.blit !model 0 m 0 (Bytes.length !model);
              Bytes.blit b 0 m off (Bytes.length b);
              model := m
            in
            let expect_read name ~off n got =
              let want = Bytes.sub !model off (Int.max 0 (Int.min n (Bytes.length !model - off))) in
              answer (Bytes.length want) name got;
              landed name want
            in
            let pos name want =
              answer want (name ^ ": position") (L.lseek c ~fd ~off:0 ~whence:1)
            in
            List.iteri
              (fun k n ->
                let name op = Printf.sprintf "%s %s %d" path op n in
                let b = pattern k n in
                put b;
                ignore (L.lseek c ~fd ~off:(3 * k) ~whence:0);
                answer n (name "write") (L.write c ~fd ~vaddr:src ~len:n);
                store (3 * k) b;
                pos (name "write") ((3 * k) + n);
                let b = pattern (k + 100) n in
                put b;
                answer n (name "pwrite64") (L.pwrite c ~fd ~vaddr:src ~len:n ~off:((5 * k) + 1));
                store ((5 * k) + 1) b;
                pos (name "pwrite64") ((3 * k) + n);
                ignore (L.lseek c ~fd ~off:k ~whence:0);
                expect_read (name "read") ~off:k n (L.read c ~fd ~vaddr:dst ~len:n);
                pos (name "read") (k + n);
                expect_read (name "pread64") ~off:(2 * k) n
                  (L.pread c ~fd ~vaddr:dst ~len:n ~off:(2 * k));
                pos (name "pread64") (k + n))
              [ 0; 1; 65_535; 65_536; 65_537; 200_000 ];
            (* Reads that end at end-of-file inside their second chunk. *)
            let size = Bytes.length !model in
            ignore (L.lseek c ~fd ~off:(size - 70_000) ~whence:0);
            expect_read (path ^ " read to EOF") ~off:(size - 70_000) 200_000
              (L.read c ~fd ~vaddr:dst ~len:200_000);
            pos (path ^ " read to EOF") size;
            expect_read (path ^ " pread64 to EOF") ~off:(size - 65_537) mib
              (L.pread c ~fd ~vaddr:dst ~len:mib ~off:(size - 65_537));
            ignore (L.close c fd))
          [ "/tmp/chunks"; "/ext2/chunks" ];
        (* Streams: a pipe, a unix socketpair and a loopback TCP pair. *)
        let stream name rd wr =
          let b = pattern 7 200_000 in
          put b;
          answer 200_000 (name ^ " write 200000") (L.write c ~fd:wr ~vaddr:src ~len:200_000);
          ignore (L.nanosleep_us c 10_000.);
          ignore (L.set_nonblock c ~fd:rd);
          answer 200_000 (name ^ " non-blocking read") (L.read c ~fd:rd ~vaddr:dst ~len:mib);
          landed (name ^ " non-blocking read") b;
          answer (-Aster.Errno.eagain) (name ^ " non-blocking read of nothing")
            (L.read c ~fd:rd ~vaddr:dst ~len:mib);
          ignore (L.fcntl_setfl c ~fd:rd ~flags:0);
          (* One whole chunk there: the second chunk finds nothing and
             ends the call instead of waiting. *)
          let b = pattern 8 65_536 in
          put b;
          answer 65_536 (name ^ " write 65536") (L.write c ~fd:wr ~vaddr:src ~len:65_536);
          ignore (L.nanosleep_us c 10_000.);
          answer 65_536 (name ^ " blocking read") (L.read c ~fd:rd ~vaddr:dst ~len:200_000);
          landed (name ^ " blocking read") b;
          put (pattern 9 10);
          answer 10 (name ^ " write 10") (L.write c ~fd:wr ~vaddr:src ~len:10);
          ignore (L.nanosleep_us c 10_000.);
          answer 10 (name ^ " blocking read of 10") (L.read c ~fd:rd ~vaddr:dst ~len:mib);
          landed (name ^ " blocking read of 10") (pattern 9 10)
        in
        (match L.pipe c with
        | Ok (rd, wr) -> stream "pipe" rd wr
        | Error e -> answer 0 "pipe" e);
        let sv = L.ualloc c 8 in
        answer 0 "socketpair"
          (L.syscall c Aster.Syscall_nr.socketpair [| 1L; 1L; 0L; Int64.of_int sv |]);
        let fds = L.get_bytes c sv 8 in
        let fd_at i = Int32.to_int (Bytes.get_int32_le fds i) in
        stream "socketpair" (fd_at 0) (fd_at 4);
        let lfd = L.socket c ~domain:2 ~typ:1 in
        ignore (L.bind_inet c ~fd:lfd ~port:7300);
        ignore (L.listen c ~fd:lfd ~backlog:4);
        let cfd = L.socket c ~domain:2 ~typ:1 in
        answer 0 "tcp connect"
          (L.connect_inet c ~fd:cfd ~ip:(Aster.Packet.ip_of_string "127.0.0.1") ~port:7300);
        let sfd = L.accept c ~fd:lfd in
        ignore (L.set_nodelay c ~fd:cfd);
        stream "tcp" sfd cfd;
        (* Host words of one 1 MiB call, each run once unmeasured first. *)
        let allocated () =
          Gc.minor ();
          let minor, promoted, major = Gc.counters () in
          minor +. major -. promoted
        in
        let measure ~want name call =
          ignore (call ());
          let w0 = allocated () in
          answer want name (call ());
          words := (name, allocated () -. w0) :: !words
        in
        put (pattern 3 mib);
        let null = L.openf c "/dev/null" ~flags:1 ~mode:0 in
        measure ~want:mib "1 MiB write to /dev/null" (fun () ->
            L.write c ~fd:null ~vaddr:src ~len:mib);
        let fd = L.openf c "/tmp/cached" ~flags:0o102 ~mode:0o644 in
        answer mib "1 MiB write to /tmp" (L.write c ~fd ~vaddr:src ~len:mib);
        measure ~want:mib "1 MiB pread64 of a cached /tmp file" (fun () ->
            L.pread c ~fd ~vaddr:dst ~len:mib ~off:0);
        landed "1 MiB pread64 of a cached /tmp file" (pattern 3 mib);
        measure ~want:65_536 "64 KiB getrandom" (fun () ->
            L.syscall c Aster.Syscall_nr.getrandom [| Int64.of_int dst; 65_536L; 0L |]);
        0)
  in
  Alcotest.(check (list string)) "every count gets Linux's answer" [] (List.rev !wrong);
  check_int "exit" 0 code;
  check_int "every call measured" 3 (List.length !words);
  Alcotest.(check (list string)) "each call allocates under 16,384 host words" []
    (List.filter_map
       (fun (name, w) -> if w < 16_384. then None else Some (Printf.sprintf "%s: %.0f" name w))
       (List.rev !words))

(* A stream read whose destination faults leaves the bytes it could
   not deliver queued, as Linux's pipe_read, tcp_recvmsg and
   unix_stream_read_generic do: the read asks the object only for what
   the destination can receive. On a pipe, a unix socketpair and a
   loopback TCP pair. A read into a destination with no reachable byte
   answers in Linux's order: -EAGAIN when non-blocking with nothing
   queued, -EFAULT only once a second task's write has queued bytes
   (which stay queued), and 0 at end of stream. *)
let test_stream_read_fault_keeps_bytes () =
  let module L = Apps.Libc in
  let wrong = ref [] in
  let answer want name r =
    if r <> want then wrong := Printf.sprintf "%s = %d, want %d" name r want :: !wrong
  in
  let words = ref nan in
  let code =
    run_user (fun c ->
        let page = 4096 in
        let pattern seed n = Bytes.init n (fun i -> Char.chr (((i * 13) + seed) land 0xff)) in
        let src = L.ualloc c (2 * page) and dst = L.ualloc c (2 * page) in
        (* One page, then the unmapped gap mmap leaves after a region. *)
        let edge = L.mmap c ~len:page in
        let put b = (L.raw c).Ostd.User.mem_write src b in
        let landed name want at =
          if not (Bytes.equal (L.get_bytes c at (Bytes.length want)) want) then
            wrong := (name ^ ": wrong bytes") :: !wrong
        in
        let stream name rd wr =
          ignore (L.set_nonblock c ~fd:rd);
          let send b =
            put b;
            answer (Bytes.length b) (name ^ " write")
              (L.write c ~fd:wr ~vaddr:src ~len:(Bytes.length b));
            ignore (L.nanosleep_us c 10_000.)
          in
          let b = pattern 1 10 in
          send b;
          answer (-Aster.Errno.efault) (name ^ " read at an unmapped address")
            (L.read c ~fd:rd ~vaddr:0x10 ~len:10);
          answer 10 (name ^ " read after the fault") (L.read c ~fd:rd ~vaddr:dst ~len:10);
          landed (name ^ " read after the fault") b dst;
          let b = pattern 2 (2 * page) in
          send b;
          answer page (name ^ " read into a page, then unmapped memory")
            (L.read c ~fd:rd ~vaddr:edge ~len:(2 * page));
          landed (name ^ " first 4096") (Bytes.sub b 0 page) edge;
          answer page (name ^ " next read") (L.read c ~fd:rd ~vaddr:dst ~len:(2 * page));
          landed (name ^ " next 4096") (Bytes.sub b page page) dst;
          answer (-Aster.Errno.eagain) (name ^ " non-blocking read of nothing at 0x10")
            (L.read c ~fd:rd ~vaddr:0x10 ~len:10);
          ignore (L.fcntl_setfl c ~fd:rd ~flags:0);
          let b = pattern 3 10 in
          let wrote = ref false in
          ignore
            (L.clone_thread c (fun uapi ->
                 let c = L.make uapi in
                 ignore (L.nanosleep_us c 5_000.);
                 put b;
                 answer 10 (name ^ " second task's write") (L.write c ~fd:wr ~vaddr:src ~len:10);
                 wrote := true;
                 0));
          answer (-Aster.Errno.efault) (name ^ " blocking read of nothing at 0x10")
            (L.read c ~fd:rd ~vaddr:0x10 ~len:10);
          if not !wrote then wrong := (name ^ ": EFAULT before the second task wrote") :: !wrong;
          answer 10 (name ^ " read after the blocking fault") (L.read c ~fd:rd ~vaddr:dst ~len:10);
          landed (name ^ " read after the blocking fault") b dst;
          ignore (L.close c wr);
          ignore (L.nanosleep_us c 10_000.);
          answer 0 (name ^ " read at end of stream at 0x10") (L.read c ~fd:rd ~vaddr:0x10 ~len:10)
        in
        (match L.pipe c with
        | Ok (rd, wr) -> stream "pipe" rd wr
        | Error e -> answer 0 "pipe" e);
        let sv = L.ualloc c 8 in
        answer 0 "socketpair"
          (L.syscall c Aster.Syscall_nr.socketpair [| 1L; 1L; 0L; Int64.of_int sv |]);
        let fds = L.get_bytes c sv 8 in
        let fd_at i = Int32.to_int (Bytes.get_int32_le fds i) in
        stream "socketpair" (fd_at 0) (fd_at 4);
        let lfd = L.socket c ~domain:2 ~typ:1 in
        ignore (L.bind_inet c ~fd:lfd ~port:7301);
        ignore (L.listen c ~fd:lfd ~backlog:4);
        let cfd = L.socket c ~domain:2 ~typ:1 in
        answer 0 "tcp connect"
          (L.connect_inet c ~fd:cfd ~ip:(Aster.Packet.ip_of_string "127.0.0.1") ~port:7301);
        let sfd = L.accept c ~fd:lfd in
        ignore (L.set_nodelay c ~fd:cfd);
        stream "tcp" sfd cfd;
        (* Host words of 1,000 4 KiB pipe reads into mapped memory, the
           writes that feed them left out: 100,000 (100 a read) both
           before stream reads were capped at the destination and
           after, so the cap's page query allocates nothing. *)
        (match L.pipe c with
        | Ok (rd, wr) ->
          put (pattern 3 page);
          answer page "warm-up write" (L.write c ~fd:wr ~vaddr:src ~len:page);
          answer page "warm-up read" (L.read c ~fd:rd ~vaddr:dst ~len:page);
          Gc.minor ();
          let total = ref 0. in
          for _ = 1 to 1000 do
            ignore (L.write c ~fd:wr ~vaddr:src ~len:page);
            let w0 = Gc.minor_words () in
            let n = L.read c ~fd:rd ~vaddr:dst ~len:page in
            total := !total +. (Gc.minor_words () -. w0);
            answer page "4 KiB pipe read" n
          done;
          words := !total
        | Error e -> answer 0 "pipe" e);
        0)
  in
  Alcotest.(check (list string)) "no stream loses the bytes a fault left" [] (List.rev !wrong);
  check_int "exit" 0 code;
  Printf.printf "1,000 4 KiB pipe reads: %.0f minor words (bound 100,000)\n" !words;
  check "1,000 4 KiB pipe reads allocate at most 100,000 minor words" true (!words <= 100_000.)

let test_unbatched_profile_parity () =
  (* Same workload with batching+readahead off: identical bytes, no
     merge activity — the knobs really gate the mechanism. *)
  let profile = { Sim.Profile.asterinas with blk_readahead = false; blk_batching = false } in
  let code = run_user ~profile seq_read_after_cold_cache in
  check_int "exit code" 0 code;
  check_int "no merges with batching off" 0 (Sim.Stats.get "blk.merge");
  check_int "no readahead with it off" 0 (Sim.Stats.get "blk.readahead.issued")

(* Span-ownership conservation: with kspan on, every span-owned bio —
   through elevator merges, batched chains and readahead — must be
   completed exactly once by its primary. The creation counter
   (make_bio, primary only) and the completion counter (complete_bio,
   first status only) have to agree to the unit. *)
let test_span_bio_conservation () =
  Sim.Span.enable ();
  Sim.Span.set_auto true;
  let code = run_user seq_read_after_cold_cache in
  let created = Sim.Stats.get "span.bio_created" in
  let completed = Sim.Stats.get "span.bio_completed" in
  let merges = Sim.Stats.get "blk.merge" in
  Sim.Span.disable ();
  Sim.Span.set_auto false;
  check_int "exit code" 0 code;
  check "bios were merged under spans" true (merges > 0);
  check "span-owned bios were created" true (created > 0);
  check_int "every span-owned bio completed exactly once" created completed

(* Same conservation under mid-batch I/O errors: a failing chain is
   split and each bio retried or failed individually; neither the split
   nor the per-bio EIO fallback may double-complete or orphan a bio. *)
let test_span_bio_conservation_under_eio () =
  ignore (boot ());
  Sim.Span.enable ();
  Sim.Span.set_auto true;
  Sim.Fault.configure ~seed:13L [ ("blk.io_error", 0.08) ];
  ignore
    (Aster.Process.spawn_kernel_style ~name:"span-eio" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/ext2/span-eio.dat" ~flags:0o102 ~mode:0o644 in
         let chunk = 4096 in
         let buf = Apps.Libc.ualloc c chunk in
         for i = 0 to 255 do
           ignore (Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:chunk ~off:(i * chunk))
         done;
         (* fsync may surface EIO; conservation must hold either way. *)
         ignore (Apps.Libc.fsync c fd);
         ignore (Apps.Libc.close c fd);
         0));
  Aster.Kernel.run ();
  Sim.Fault.disable ();
  let created = Sim.Stats.get "span.bio_created" in
  let completed = Sim.Stats.get "span.bio_completed" in
  let injected = Sim.Stats.get "fault.injected.blk.io_error" in
  Sim.Span.disable ();
  Sim.Span.set_auto false;
  check "errors were actually injected" true (injected > 0);
  check "span-owned bios were created" true (created > 0);
  check_int "conservation holds under EIO fallback" created completed

(* errseq_t: a writeback error met by the *background* flusher must be
   observed by a later fsync on the file — once per open description —
   even though that fsync's own writes all succeed. *)
let test_errseq_sticky_writeback_error () =
  ignore (boot ());
  let eio = Aster.Errno.eio in
  let rc_first = ref 0 in
  let rc_drain = ref (-1) in
  let rc_second_fd = ref 0 in
  let rc_fresh = ref (-1) in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"errseq" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/ext2/wb.dat" ~flags:0o102 ~mode:0o644 in
         let fd2 = Apps.Libc.openf c "/ext2/wb.dat" ~flags:0o2 ~mode:0 in
         let chunk = 4096 in
         let buf = Apps.Libc.ualloc c chunk in
         (* Warm the metadata paths (bitmaps, inode block, first data
            block) while the device is healthy. *)
         ignore (Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:chunk ~off:0);
         ignore (Apps.Libc.fsync c fd);
         let seq0 = Aster.Block.wb_errseq () in
         (* From here every device write fails; then cross the
            background-writeback threshold so the *flusher* — not this
            task — meets the bad device and has to drop blocks. *)
         Sim.Fault.configure ~seed:1L [ ("blk.io_error", 1.0) ];
         for i = 1 to 1023 do
           ignore (Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:chunk ~off:(i * chunk))
         done;
         let tries = ref 0 in
         while Aster.Block.wb_errseq () = seq0 && !tries < 500 do
           ignore (Apps.Libc.nanosleep_us c 1000.);
           incr tries
         done;
         Sim.Fault.disable ();
         (* First fsync on a pre-error description observes the error… *)
         rc_first := Apps.Libc.fsync c fd;
         (* …exactly once per observer: draining reaches success. *)
         let rec drain n =
           if n > 3 then -1 else if Apps.Libc.fsync c fd = 0 then n else drain (n + 1)
         in
         rc_drain := drain 1;
         (* An independent pre-error description still has its view. *)
         rc_second_fd := Apps.Libc.fsync c fd2;
         (* One opened after everyone consumed the error starts clean. *)
         let fd3 = Apps.Libc.openf c "/ext2/wb.dat" ~flags:0o2 ~mode:0 in
         rc_fresh := Apps.Libc.fsync c fd3;
         0));
  Aster.Kernel.run ();
  check "flusher recorded a writeback error" true (Aster.Block.wb_errseq () > 0);
  check_int "first fsync observes EIO" (-eio) !rc_first;
  check "same fd then drains to success" true (!rc_drain >= 1);
  check_int "second pre-error fd observes EIO too" (-eio) !rc_second_fd;
  check_int "fd opened after consumption starts clean" 0 !rc_fresh

(* rename(2) under power cut: the config file is replaced by write-tmp,
   fsync, rename. Whatever boundary the power dies on, the surviving
   file must be one complete generation — never torn, never a hybrid,
   never older than the last journal-committed one. *)
let test_rename_atomic_under_crash () =
  let n = Apps.Crash.boundaries ~seed:42L ~journal:true ~workload:Apps.Crash.Fs in
  check "clean run persists sectors" true (n > 0);
  let step = max 1 (n / 16) in
  let k = ref 0 in
  while !k < n do
    let st =
      Apps.Crash.run ~seed:42L ~journal:true ~workload:Apps.Crash.Fs
        ~cut_after:(Some !k)
    in
    let v = Apps.Crash.recover st in
    let cfg_viol =
      List.filter
        (fun m -> String.length m >= 4 && String.sub m 0 4 = "cfg:")
        v.Apps.Crash.violations
    in
    Alcotest.(check (list string))
      (Printf.sprintf "cfg intact at crash point %d" !k)
      [] cfg_viol;
    k := !k + step
  done

let test_segfault_kills_child () =
  let code =
    run_user (fun c ->
        let child =
          Apps.Libc.fork c (fun uapi ->
              (* Touch an address far outside every region. *)
              uapi.Ostd.User.mem_write_u64 0x7FFF0000 1L;
              0)
        in
        ignore child;
        match Apps.Libc.waitpid c with
        | Ok (_, 139) -> 0
        | Ok (_, s) -> 10 + s
        | Error _ -> 1)
  in
  check_int "exit" 0 code

let () =
  Alcotest.run "aster"
    [
      ( "policies",
        [
          Alcotest.test_case "buddy_coalescing" `Quick test_buddy_coalescing;
          Alcotest.test_case "buddy_pcpu_cache" `Quick test_buddy_pcpu_cache;
          Alcotest.test_case "slab_cache" `Quick test_slab_cache_magazine;
          Alcotest.test_case "cfs_fairness" `Quick test_cfs_fairness;
          Alcotest.test_case "rt_class" `Quick test_rt_preempts_fair;
        ] );
      ( "fs",
        [
          Alcotest.test_case "hello_ramfs" `Quick test_hello_ramfs;
          Alcotest.test_case "stat_dirs" `Quick test_stat_and_dirs;
          Alcotest.test_case "rename_unlink" `Quick test_rename_unlink;
          Alcotest.test_case "symlink" `Quick test_symlink;
          Alcotest.test_case "linux_namespace_cases" `Quick test_linux_namespace_cases;
          Alcotest.test_case "ext2_fsync" `Quick test_ext2_persistence_to_device;
          Alcotest.test_case "ext2_bigfile" `Quick test_ext2_bigfile_indirect;
          Alcotest.test_case "proc_read" `Quick test_proc_read;
          Alcotest.test_case "proc_observability" `Quick test_proc_observability_entries;
          Alcotest.test_case "proc_chunked_snapshot" `Quick test_proc_chunked_read_one_snapshot;
        ] );
      ( "process",
        [
          Alcotest.test_case "fork_wait" `Quick test_fork_wait;
          Alcotest.test_case "fork_cow" `Quick test_fork_cow_isolation;
          Alcotest.test_case "exec" `Quick test_exec;
          Alcotest.test_case "pipe" `Quick test_pipe_parent_child;
          Alcotest.test_case "uname_getpid" `Quick test_uname_getpid;
          Alcotest.test_case "enosys_surface" `Quick test_enosys_surface;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "proc_pid_status" `Quick test_proc_pid_status;
          Alcotest.test_case "negative_lengths_einval" `Quick test_negative_lengths_einval;
          Alcotest.test_case "unbounded_read_counts" `Quick test_unbounded_read_counts;
          Alcotest.test_case "cfs_nice_weights" `Quick test_cfs_nice_weights;
          Alcotest.test_case "writeback_throttle" `Quick test_block_writeback_throttling;
          Alcotest.test_case "fsync_scope" `Quick test_fsync_only_flushes_that_file;
          Alcotest.test_case "batched_seq_read" `Quick test_batched_seq_read;
          Alcotest.test_case "readahead_prefetch_set" `Quick test_readahead_prefetch_set;
          Alcotest.test_case "staging_buffer_exclusive" `Quick test_staging_buffer_exclusive;
          Alcotest.test_case "staging_buffer_eio" `Quick test_staging_buffer_eio;
          Alcotest.test_case "staging_buffer_dead_holder" `Quick test_staging_buffer_dead_holder;
          Alcotest.test_case "getdents_whole_entries" `Quick test_getdents_whole_entries;
          Alcotest.test_case "getdents_dots" `Quick test_getdents_dots;
          Alcotest.test_case "copy_chunks" `Quick test_copy_chunks;
          Alcotest.test_case "readv_one_read" `Quick test_readv_one_read;
          Alcotest.test_case "stream_read_fault_keeps_bytes" `Quick
            test_stream_read_fault_keeps_bytes;
          Alcotest.test_case "unbatched_parity" `Quick test_unbatched_profile_parity;
          Alcotest.test_case "span_bio_conservation" `Quick test_span_bio_conservation;
          Alcotest.test_case "span_bio_conservation_eio" `Quick
            test_span_bio_conservation_under_eio;
          Alcotest.test_case "errseq_writeback" `Quick test_errseq_sticky_writeback_error;
          Alcotest.test_case "rename_crash_atomic" `Quick test_rename_atomic_under_crash;
          Alcotest.test_case "segfault" `Quick test_segfault_kills_child;
          Alcotest.test_case "proc_root_own_names" `Quick test_proc_root_own_names;
          Alcotest.test_case "ext2_dir_shrink_frees_blocks" `Quick
            test_ext2_dir_shrink_frees_blocks;
          Alcotest.test_case "nanosleep_negative_sec" `Quick test_nanosleep_negative_sec;
          Alcotest.test_case "nanosleep_bad_nsec" `Quick test_nanosleep_bad_nsec;
          Alcotest.test_case "clock_nanosleep_relative" `Quick test_clock_nanosleep_relative;
          Alcotest.test_case "clock_nanosleep_abstime" `Quick test_clock_nanosleep_abstime;
          Alcotest.test_case "clock_nanosleep_bad_clock" `Quick test_clock_nanosleep_bad_clock;
          Alcotest.test_case "foreign_inode_calls" `Quick test_foreign_inode_calls;
          Alcotest.test_case "rename_reclaims_victim" `Quick test_rename_reclaims_victim;
          Alcotest.test_case "removed_cwd" `Quick test_removed_cwd;
          Alcotest.test_case "tmp_enospc" `Quick test_tmp_enospc;
          Alcotest.test_case "ext2_namespace_fsck" `Quick test_ext2_namespace_fsck;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |]) prop_ns_sequences;
        ] );
      ("ipc", [ Alcotest.test_case "linux_cases" `Quick test_ipc_linux_cases ]);
      ( "signals",
        [
          Alcotest.test_case "kill_sleeper" `Quick test_kill_terminates_sleeper;
          Alcotest.test_case "sigign" `Quick test_sigign_survives_sigterm;
          Alcotest.test_case "sigkill_unignorable" `Quick test_sigkill_unignorable;
          Alcotest.test_case "sigmask_defers" `Quick test_sigmask_defers_delivery;
        ] );
      ( "new_syscalls",
        [
          Alcotest.test_case "mkfifo_lstat" `Quick test_mkfifo_and_lstat;
          Alcotest.test_case "statfs" `Quick test_statfs_ext2;
          Alcotest.test_case "page_cache_meta" `Quick test_page_cache_metadata;
        ] );
      ( "net",
        [
          Alcotest.test_case "tcp_loopback" `Quick test_tcp_loopback;
          Alcotest.test_case "udp_loopback" `Quick test_udp_loopback;
          Alcotest.test_case "unix_socket" `Quick test_unix_socket;
          Alcotest.test_case "sendfile" `Quick (test_sendfile_tcp ~profile:Sim.Profile.asterinas "/tmp/payload");
          Alcotest.test_case "sendfile_ext2_zero_copy" `Quick
            (test_sendfile_tcp ~profile:Sim.Profile.linux "/ext2/payload");
          Alcotest.test_case "virtio_net_echo" `Quick test_virtio_net_to_host;
          Alcotest.test_case "sendfile_views_until_ack" `Quick test_sendfile_views_until_ack;
          Alcotest.test_case "sendfile_views_reset_mid_stream" `Quick
            test_sendfile_views_reset_mid_stream;
          Alcotest.test_case "sendfile_view_plugged_at_reset" `Quick
            test_sendfile_view_plugged_at_reset;
        ] );
    ]
