let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let boot ?(profile = Sim.Profile.asterinas) () =
  let k = Aster.Kernel.boot ~profile () in
  Apps.Libc.install_child_resolver ();
  k

let run_user ?profile body =
  ignore (boot ?profile ());
  let result = ref None in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"apps-test" (fun uapi ->
         let code = body (Apps.Libc.make uapi) in
         result := Some code;
         code));
  Aster.Kernel.run ();
  match !result with
  | Some code -> code
  | None -> Alcotest.fail "user program did not finish"

(* --- Packet codec --- *)

(* What a receiver gets: the stack encodes, the NIC seals the frame
   with its checksum on the way out. *)
let wire_frame p =
  let b = Aster.Packet.encode p in
  Machine.Pktfmt.seal b;
  b

(* A packet's payload bytes: the view [payload.[off, off + len)]. *)
let view (q : Aster.Packet.t) = Bytes.sub_string q.Aster.Packet.payload q.Aster.Packet.off q.Aster.Packet.len

let test_packet_roundtrip () =
  let p =
    Aster.Packet.make
      ~src_ip:(Aster.Packet.ip_of_string "10.0.2.15")
      ~dst_ip:(Aster.Packet.ip_of_string "10.0.2.2")
      ~proto:Aster.Packet.Tcp ~src_port:33000 ~dst_port:80 ~flags:Aster.Packet.syn ~seq:7
      ~ack:9 ~win:65535 (Bytes.of_string "payload!")
  in
  match Aster.Packet.decode (wire_frame p) with
  | None -> Alcotest.fail "decode failed"
  | Some q ->
    check "fields survive" true
      (q.Aster.Packet.src_ip = p.Aster.Packet.src_ip
      && q.Aster.Packet.dst_ip = p.Aster.Packet.dst_ip
      && q.Aster.Packet.proto = Aster.Packet.Tcp
      && q.Aster.Packet.src_port = 33000 && q.Aster.Packet.dst_port = 80
      && q.Aster.Packet.flags = Aster.Packet.syn
      && q.Aster.Packet.seq = 7 && q.Aster.Packet.ack = 9 && q.Aster.Packet.win = 65535
      && view q = "payload!")

(* Decoding copies nothing: the payload is the frame itself, viewed
   from just past the header, as long as the frame's payload. *)
let test_packet_decode_is_a_view () =
  let frame =
    wire_frame
      (Aster.Packet.make ~src_ip:1 ~dst_ip:2 ~proto:Aster.Packet.Tcp ~src_port:5 ~dst_port:6
         (Bytes.of_string "a view, not a copy"))
  in
  match Aster.Packet.decode frame with
  | None -> Alcotest.fail "decode failed"
  | Some q ->
    check "payload is the frame" true (q.Aster.Packet.payload == frame);
    check "view starts past the header" true (q.Aster.Packet.off = Aster.Packet.header_size);
    check "view is the frame's payload" true
      (q.Aster.Packet.len = Bytes.length frame - Aster.Packet.header_size);
    check "view reads the payload" true (view q = "a view, not a copy")

let test_packet_bad_input () =
  check "short buffer" true (Aster.Packet.decode (Bytes.create 3) = None)

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet_random_roundtrips" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 2000))
    (fun s ->
      let p =
        Aster.Packet.make ~src_ip:1 ~dst_ip:2 ~proto:Aster.Packet.Udp ~src_port:5 ~dst_port:6
          (Bytes.of_string s)
      in
      match Aster.Packet.decode (wire_frame p) with
      | Some q ->
        q.Aster.Packet.src_ip = 1 && q.Aster.Packet.dst_ip = 2
        && q.Aster.Packet.proto = Aster.Packet.Udp
        && q.Aster.Packet.src_port = 5 && q.Aster.Packet.dst_port = 6
        && q.Aster.Packet.flags = 0 && q.Aster.Packet.seq = 0 && q.Aster.Packet.ack = 0
        && q.Aster.Packet.win = 0 && view q = s
      | None -> false)

(* A payload of [n] bytes that differ from their neighbours, so a
   misplaced or dropped chunk cannot go unnoticed. *)
let seeded_payload n seed = Bytes.init n (fun i -> Char.chr (((i * 131) + seed) land 0xff))

(* The wire frames TSO cuts an encoded super-segment into, in order. *)
let tso_frames ~gso_size raw =
  let frames = ref [] in
  Machine.Pktfmt.tso_split ~gso_size ~len:(Bytes.length raw) (Bytes.blit raw) (fun f ->
      frames := f :: !frames);
  List.rev !frames

let prop_segmentation =
  QCheck.Test.make ~name:"tso_frames_verify_and_reassemble" ~count:100
    QCheck.(triple (int_range 0 (64 * 1024)) (int_range 1 9000) (int_range 0 0xffffffff))
    (fun (n, gso_size, seq) ->
      let payload = seeded_payload n seq in
      let flags = Aster.Packet.ack_flag lor Aster.Packet.psh lor Aster.Packet.fin in
      let inner_flags = flags land lnot (Aster.Packet.fin lor Aster.Packet.psh) in
      let p =
        Aster.Packet.make ~src_ip:1 ~dst_ip:2 ~proto:Aster.Packet.Tcp ~src_port:5 ~dst_port:6
          ~flags ~seq payload
      in
      let frames = tso_frames ~gso_size (Aster.Packet.encode p) in
      let last = List.length frames - 1 in
      let consumed = Buffer.create n in
      let frame_ok i f =
        Machine.Pktfmt.cksum_ok f
        &&
        match Aster.Packet.decode f with
        | None -> false
        | Some q ->
          let seq_ok = q.Aster.Packet.seq = (seq + Buffer.length consumed) land 0xffffffff in
          Buffer.add_string consumed (view q);
          seq_ok
          && q.Aster.Packet.len <= gso_size
          && q.Aster.Packet.src_ip = 1 && q.Aster.Packet.dst_ip = 2
          && q.Aster.Packet.proto = Aster.Packet.Tcp
          && q.Aster.Packet.src_port = 5 && q.Aster.Packet.dst_port = 6
          && q.Aster.Packet.ack = 0 && q.Aster.Packet.win = 0
          && q.Aster.Packet.flags = if i = last then flags else inner_flags
      in
      List.for_all Fun.id (List.mapi frame_ok frames)
      && Buffer.contents consumed = Bytes.to_string payload)

(* Every frame TSO cuts decodes to a view that lies inside that very
   frame, past its header, and the views in frame order concatenate to
   the super-segment's payload. *)
let prop_tso_frames_decode_to_views =
  QCheck.Test.make ~name:"tso_frames_decode_to_views" ~count:100
    QCheck.(pair (int_range 0 (64 * 1024)) (int_range 1 9000))
    (fun (n, gso_size) ->
      let payload = seeded_payload n gso_size in
      let p =
        Aster.Packet.make ~src_ip:1 ~dst_ip:2 ~proto:Aster.Packet.Tcp ~src_port:5 ~dst_port:6
          payload
      in
      let views =
        List.map
          (fun f ->
            match Aster.Packet.decode f with
            | Some q
              when q.Aster.Packet.payload == f
                   && q.Aster.Packet.off = Aster.Packet.header_size
                   && q.Aster.Packet.off + q.Aster.Packet.len = Bytes.length f ->
              Some (view q)
            | Some _ | None -> None)
          (tso_frames ~gso_size (Aster.Packet.encode p))
      in
      List.for_all Option.is_some views
      && String.concat "" (List.filter_map Fun.id views) = Bytes.to_string payload)

let prop_single_byte_flip_rejected =
  QCheck.Test.make ~name:"sealed_frame_single_byte_flip_rejected" ~count:500
    QCheck.(triple (int_range 0 2000) (int_range 0 max_int) (int_range 1 255))
    (fun (n, at, mask) ->
      let frame =
        wire_frame
          (Aster.Packet.make ~src_ip:1 ~dst_ip:2 ~proto:Aster.Packet.Tcp ~src_port:5 ~dst_port:6
             ~seq:at (seeded_payload n at))
      in
      let i = at mod Bytes.length frame in
      Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor mask));
      (not (Machine.Pktfmt.cksum_ok frame)) && Aster.Packet.decode frame = None)

(* A sealed frame of [len] bytes (at least a header) with a payload
   whose bytes differ from their neighbours. *)
let sealed_frame len =
  wire_frame
    (Aster.Packet.make ~src_ip:1 ~dst_ip:2 ~proto:Aster.Packet.Tcp ~src_port:5 ~dst_port:6
       ~seq:len
       (seeded_payload (len - Machine.Pktfmt.header_size) len))

(* The checksum runs in four lanes over whole 16-byte blocks, then
   serially over the last words and bytes. Frame lengths 36..100 put a
   frame's end at every residue mod 16, so every lane position and
   every tail shape occurs, and a flip of 0x01, 0x80 or 0xff at every
   byte of every such frame must be rejected by the NIC's verdict and
   by the stack's decode alike. *)
let test_checksum_flip_sweep () =
  let missed = ref [] in
  for len = 36 to 100 do
    let frame = sealed_frame len in
    if not (Machine.Pktfmt.cksum_ok frame) then
      missed := Printf.sprintf "len %d sealed" len :: !missed;
    for i = 0 to len - 1 do
      List.iter
        (fun mask ->
          let f = Bytes.copy frame in
          Bytes.set f i (Char.chr (Char.code (Bytes.get f i) lxor mask));
          if Machine.Pktfmt.cksum_ok f || Aster.Packet.decode f <> None then
            missed := Printf.sprintf "len %d byte %d mask 0x%02x" len i mask :: !missed)
        [ 0x01; 0x80; 0xff ]
    done
  done;
  Alcotest.(check (list string)) "every sealed frame verifies, every flip is caught" []
    (List.rev !missed)

let prop_word_replacement_rejected =
  QCheck.Test.make ~name:"sealed_frame_word_replacement_rejected" ~count:1000
    QCheck.(triple (int_range 36 2000) (int_range 0 max_int) (int_range 0 0xffffffff))
    (fun (len, at, v) ->
      let frame = sealed_frame len in
      let off = 4 * (at mod (len / 4)) in
      let old = Int32.to_int (Bytes.get_int32_le frame off) land 0xffffffff in
      QCheck.assume (v <> old);
      Bytes.set_int32_le frame off (Int32.of_int v);
      (not (Machine.Pktfmt.cksum_ok frame)) && Aster.Packet.decode frame = None)

let test_ip_strings () =
  check_str "roundtrip" "192.168.1.42"
    (Aster.Packet.string_of_ip (Aster.Packet.ip_of_string "192.168.1.42"))

(* --- Libc over the full kernel --- *)

let test_libc_file_calls () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/tmp/f" ~flags:0o102 ~mode:0o644 in
        let buf = Apps.Libc.ualloc c 4096 in
        (Apps.Libc.raw c).Ostd.User.mem_write buf (Bytes.of_string "0123456789");
        if Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:10 ~off:0 <> 10 then 1
        else if Apps.Libc.pread c ~fd ~vaddr:buf ~len:4 ~off:3 <> 4 then 2
        else if Bytes.to_string (Apps.Libc.get_bytes c buf 4) <> "3456" then 3
        else if Apps.Libc.lseek c ~fd ~off:(-2) ~whence:2 <> 8 then 4
        else if Apps.Libc.ftruncate c ~fd ~len:5 <> 0 then 5
        else
          match Apps.Libc.fstat c fd with
          | Ok st when st.Aster.Abi.size = 5 -> 0
          | Ok _ -> 6
          | Error _ -> 7)
  in
  check_int "exit" 0 code

let test_libc_dup_umask_cwd () =
  let code =
    run_user (fun c ->
        ignore (Apps.Libc.mkdir c "/tmp/wd");
        if Apps.Libc.chdir c "/tmp/wd" < 0 then 1
        else if Apps.Libc.getcwd c <> "/tmp/wd" then 2
        else begin
          (* Relative path resolution from the new cwd. *)
          let fd = Apps.Libc.openf c "rel.txt" ~flags:0o101 ~mode:0o644 in
          ignore (Apps.Libc.write_str c ~fd "rel");
          if Apps.Libc.dup2 c fd 9 < 0 then 3
          else begin
            ignore (Apps.Libc.close c fd);
            (* fd 9 still works after closing the original. *)
            let n = Apps.Libc.write_str c ~fd:9 "-more" in
            ignore (Apps.Libc.close c 9);
            if n <> 5 then 4
            else if Apps.Libc.access c "/tmp/wd/rel.txt" <> 0 then 5
            else 0
          end
        end)
  in
  check_int "exit" 0 code

let test_libc_readv_writev () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/tmp/v" ~flags:0o102 ~mode:0o644 in
        let b1 = Apps.Libc.put_bytes c (Bytes.of_string "abc") in
        let b2 = Apps.Libc.put_bytes c (Bytes.of_string "defg") in
        let iov = Bytes.create 32 in
        Bytes.set_int64_le iov 0 (Int64.of_int b1);
        Bytes.set_int64_le iov 8 3L;
        Bytes.set_int64_le iov 16 (Int64.of_int b2);
        Bytes.set_int64_le iov 24 4L;
        let iov_ptr = Apps.Libc.put_bytes c iov in
        (* A short register array must not crash the kernel. *)
        ignore (Apps.Libc.syscall c Aster.Syscall_nr.writev [| 0L |]);
        let wrote =
          Apps.Libc.syscall c Aster.Syscall_nr.writev
            [| Int64.of_int fd; Int64.of_int iov_ptr; 2L |]
        in
        if wrote <> 7 then 1
        else begin
          ignore (Apps.Libc.close c fd);
          let fd = Apps.Libc.openf c "/tmp/v" ~flags:0 ~mode:0 in
          let s = Apps.Libc.read_str c ~fd ~len:16 in
          if s = "abcdefg" then 0 else 2
        end)
  in
  check_int "exit" 0 code

(* open(2) copies the path in 64-byte chunks. A path whose NUL is the
   last byte of a mapping, with an unmapped page behind it, must still
   open; one that runs off the end of the mapping must still fault. *)
let test_open_path_at_mapping_end () =
  let code =
    run_user (fun c ->
        let fd = Apps.Libc.openf c "/tmp/near_end" ~flags:0o101 ~mode:0o644 in
        ignore (Apps.Libc.close c fd);
        let page = Apps.Libc.mmap c ~len:4096 in
        let put_at_end s =
          let at = page + 4096 - String.length s in
          (Apps.Libc.raw c).Ostd.User.mem_write at (Bytes.of_string s);
          at
        in
        let open_at at = Apps.Libc.syscall c Aster.Syscall_nr.open_ [| Int64.of_int at; 0L; 0L |] in
        let fd = open_at (put_at_end "/tmp/near_end\000") in
        if fd < 0 then 1
        else begin
          ignore (Apps.Libc.close c fd);
          if open_at (put_at_end "/tmp/near_end") <> -Aster.Errno.efault then 2 else 0
        end)
  in
  check_int "exit" 0 code

let test_poll_on_pipe () =
  let code =
    run_user (fun c ->
        match Apps.Libc.pipe c with
        | Error _ -> 1
        | Ok (rfd, wfd) ->
          (* pollfd { int fd; short events; short revents } *)
          let pfd = Bytes.make 8 '\000' in
          Bytes.set_int32_le pfd 0 (Int32.of_int rfd);
          Bytes.set_uint16_le pfd 4 1 (* POLLIN: poll honours the events mask *);
          let pfd_ptr = Apps.Libc.put_bytes c pfd in
          (* Nothing readable yet: expect timeout -> 0 ready. *)
          let r0 =
            Apps.Libc.syscall c Aster.Syscall_nr.poll [| Int64.of_int pfd_ptr; 1L; 1L |]
          in
          ignore (Apps.Libc.write_str c ~fd:wfd "x");
          let r1 =
            Apps.Libc.syscall c Aster.Syscall_nr.poll [| Int64.of_int pfd_ptr; 1L; 100L |]
          in
          if r0 = 0 && r1 = 1 then 0 else 2)
  in
  check_int "exit" 0 code

let test_clock_monotonic () =
  let code =
    run_user (fun c ->
        let t1 = Apps.Libc.clock_monotonic_ns c in
        ignore (Apps.Libc.nanosleep_us c 50.);
        let t2 = Apps.Libc.clock_monotonic_ns c in
        if Int64.compare t2 t1 > 0 then 0 else 1)
  in
  check_int "exit" 0 code

let test_getrandom () =
  let code =
    run_user (fun c ->
        let buf = Apps.Libc.ualloc c 64 in
        let n = Apps.Libc.syscall c Aster.Syscall_nr.getrandom [| Int64.of_int buf; 64L; 0L |] in
        if n = 64 then 0 else 1)
  in
  check_int "exit" 0 code

(* --- Mini redis command engine --- *)

let test_redis_protocol () =
  ignore (boot ());
  let got = ref [] in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"redis-proto" (fun uapi ->
         let c = Apps.Libc.make uapi in
         ignore c;
         0));
  Aster.Kernel.run ();
  ignore !got;
  (* Drive the server over loopback from a second user process. *)
  ignore (boot ());
  Apps.Mini_redis.spawn ();
  let replies = ref [] in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"client" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
         let lo = Aster.Packet.ip_of_string "127.0.0.1" in
         let rec wait n =
           if Apps.Libc.connect_inet c ~fd ~ip:lo ~port:Apps.Mini_redis.port >= 0 then true
           else if n = 0 then false
           else begin
             ignore (Apps.Libc.nanosleep_us c 200.);
             wait (n - 1)
           end
         in
         if not (wait 30) then 1
         else begin
           List.iter
             (fun cmd ->
               ignore (Apps.Libc.write_str c ~fd (cmd ^ "\n"));
               replies := Apps.Libc.read_str c ~fd ~len:4096 :: !replies)
             [ "SET k v1"; "GET k"; "INCR n"; "INCR n"; "RPUSH l a"; "RPUSH l b"; "LRANGE l 0 1";
               "SADD s x"; "SPOP s"; "HSET h f v"; "ZADD z 3 m"; "ZPOPMIN z"; "LPOP l"; "GET missing";
               "APPEND k -more"; "STRLEN k"; "EXISTS k"; "DEL k"; "EXISTS k"; "SETNX nk 1";
               "SETNX nk 2"; "GETSET nk 3"; "LLEN l"; "HGET h f"; "HDEL h f"; "HLEN h";
               "SADD s2 a"; "SCARD s2"; "SISMEMBER s2 a"; "ECHO hi" ];
           0
         end));
  Aster.Kernel.run ();
  let r = List.rev !replies in
  check_str "set" "+OK\n" (List.nth r 0);
  check_str "get" "$v1\n" (List.nth r 1);
  check_str "incr1" ":1\n" (List.nth r 2);
  check_str "incr2" ":2\n" (List.nth r 3);
  check_str "lrange" "*2\n$a\n$b\n" (List.nth r 6);
  check_str "spop" "$x\n" (List.nth r 8);
  check_str "zpopmin" "*2\n$m\n$3\n" (List.nth r 11);
  check_str "lpop" "$a\n" (List.nth r 12);
  check_str "missing" "$-1\n" (List.nth r 13);
  check_str "append" ":7\n" (List.nth r 14);
  check_str "strlen" ":7\n" (List.nth r 15);
  check_str "exists" ":1\n" (List.nth r 16);
  check_str "del" ":1\n" (List.nth r 17);
  check_str "exists_after" ":0\n" (List.nth r 18);
  check_str "setnx_fresh" ":1\n" (List.nth r 19);
  check_str "setnx_taken" ":0\n" (List.nth r 20);
  check_str "getset" "$1\n" (List.nth r 21);
  check_str "llen" ":1\n" (List.nth r 22);
  check_str "hget" "$v\n" (List.nth r 23);
  check_str "hdel" ":1\n" (List.nth r 24);
  check_str "hlen" ":0\n" (List.nth r 25);
  check_str "scard" ":1\n" (List.nth r 27);
  check_str "sismember" ":1\n" (List.nth r 28);
  check_str "echo" "$hi\n" (List.nth r 29)

(* --- Mini sqlite engine --- *)

let with_db f =
  ignore (boot ());
  let out = ref None in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"sqlite-test" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let db = Apps.Mini_sqlite.open_db c "/ext2/test.db" in
         let r = f db in
         Apps.Mini_sqlite.close_db db;
         out := Some r;
         0));
  Aster.Kernel.run ();
  Option.get !out

let test_sqlite_insert_lookup () =
  let ok =
    with_db (fun db ->
        Apps.Mini_sqlite.create_table db "t";
        Apps.Mini_sqlite.begin_txn db;
        for i = 1 to 300 do
          Apps.Mini_sqlite.insert db ~table:"t" (Apps.Mini_sqlite.K_int i)
            (Printf.sprintf "row%d" i)
        done;
        Apps.Mini_sqlite.commit db;
        Apps.Mini_sqlite.lookup db ~table:"t" (Apps.Mini_sqlite.K_int 137) = Some "row137"
        && Apps.Mini_sqlite.lookup db ~table:"t" (Apps.Mini_sqlite.K_int 999) = None
        && Apps.Mini_sqlite.row_count db ~table:"t" = 300)
  in
  check "insert/lookup" true ok

let test_sqlite_range_update_delete () =
  let ok =
    with_db (fun db ->
        Apps.Mini_sqlite.create_table db "t";
        Apps.Mini_sqlite.begin_txn db;
        for i = 1 to 200 do
          Apps.Mini_sqlite.insert db ~table:"t" (Apps.Mini_sqlite.K_int i) "v"
        done;
        Apps.Mini_sqlite.commit db;
        let in_range =
          Apps.Mini_sqlite.range_count db ~table:"t" ~lo:(Apps.Mini_sqlite.K_int 50)
            ~hi:(Apps.Mini_sqlite.K_int 59)
        in
        Apps.Mini_sqlite.begin_txn db;
        let updated =
          Apps.Mini_sqlite.update_range db ~table:"t" ~lo:(Apps.Mini_sqlite.K_int 1)
            ~hi:(Apps.Mini_sqlite.K_int 10)
            ~f:(fun v -> v ^ "!")
        in
        let deleted =
          Apps.Mini_sqlite.delete_range db ~table:"t" ~lo:(Apps.Mini_sqlite.K_int 100)
            ~hi:(Apps.Mini_sqlite.K_int 149)
        in
        Apps.Mini_sqlite.commit db;
        in_range = 10 && updated = 10 && deleted = 50
        && Apps.Mini_sqlite.row_count db ~table:"t" = 150
        && Apps.Mini_sqlite.lookup db ~table:"t" (Apps.Mini_sqlite.K_int 3) = Some "v!")
  in
  check "range ops" true ok

let test_sqlite_text_keys_and_vacuum () =
  let ok =
    with_db (fun db ->
        Apps.Mini_sqlite.create_table db "t";
        Apps.Mini_sqlite.begin_txn db;
        for i = 1 to 120 do
          Apps.Mini_sqlite.insert db ~table:"t"
            (Apps.Mini_sqlite.K_text (Printf.sprintf "key-%04d" i))
            (Printf.sprintf "val%d" i)
        done;
        Apps.Mini_sqlite.commit db;
        let pages_before = Apps.Mini_sqlite.pages_in_file db in
        Apps.Mini_sqlite.begin_txn db;
        ignore
          (Apps.Mini_sqlite.delete_range db ~table:"t"
             ~lo:(Apps.Mini_sqlite.K_text "key-0000")
             ~hi:(Apps.Mini_sqlite.K_text "key-0100"));
        Apps.Mini_sqlite.commit db;
        Apps.Mini_sqlite.vacuum db;
        let pages_after = Apps.Mini_sqlite.pages_in_file db in
        Apps.Mini_sqlite.lookup db ~table:"t" (Apps.Mini_sqlite.K_text "key-0110")
        = Some "val110"
        && pages_after <= pages_before
        && Apps.Mini_sqlite.integrity_check db > 0)
  in
  check "text keys + vacuum" true ok

let prop_sqlite_random_inserts =
  QCheck.Test.make ~name:"sqlite_btree_holds_random_keys" ~count:8
    QCheck.(list_of_size (Gen.int_range 10 120) (int_range 0 5000))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      with_db (fun db ->
          Apps.Mini_sqlite.create_table db "t";
          Apps.Mini_sqlite.begin_txn db;
          List.iter
            (fun k ->
              Apps.Mini_sqlite.insert db ~table:"t" (Apps.Mini_sqlite.K_int k)
                (string_of_int k))
            keys;
          Apps.Mini_sqlite.commit db;
          List.for_all
            (fun k ->
              Apps.Mini_sqlite.lookup db ~table:"t" (Apps.Mini_sqlite.K_int k)
              = Some (string_of_int k))
            keys
          && Apps.Mini_sqlite.row_count db ~table:"t" = List.length keys))

(* --- Workload smoke runs --- *)

let test_speedtest1_structure () =
  ignore (boot ());
  let out = ref [] in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"st1" (fun uapi ->
         out := Apps.Speedtest1.run ~size:4 (Apps.Libc.make uapi);
         0));
  Aster.Kernel.run ();
  check_int "all 32 tests" 32 (List.length !out);
  check "times positive" true
    (List.for_all (fun r -> r.Apps.Speedtest1.seconds >= 0.) !out)

let test_fio_sane () =
  ignore (boot ());
  let out = ref { Apps.Fio.write_mb_s = nan; read_cold_mb_s = nan; read_mb_s = nan } in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"fio" (fun uapi ->
         out := Apps.Fio.run (Apps.Libc.make uapi) ~file:"/ext2/fio.dat" ~mbytes:2;
         0));
  Aster.Kernel.run ();
  check "write bw sane" true (!out.Apps.Fio.write_mb_s > 10. && !out.Apps.Fio.write_mb_s < 100000.);
  check "read faster than write" true (!out.Apps.Fio.read_mb_s > !out.Apps.Fio.write_mb_s)

let test_lmbench_spot () =
  let row = Apps.Lmbench.find "lat_syscall null" in
  let v = row.Apps.Lmbench.run Sim.Profile.linux in
  check "null syscall near 0.05us" true (v > 0.01 && v < 0.2);
  let bw = Apps.Lmbench.find "bw_pipe" in
  check "pipe bandwidth positive" true (bw.Apps.Lmbench.run Sim.Profile.asterinas > 100.)

let test_nginx_smoke () =
  let k = boot () in
  let host = Aster.Kernel.attach_host k in
  Apps.Mini_nginx.spawn ~requests:60 ~sizes:[ ("f", 4096) ] ();
  let out = ref None in
  Apps.Ab.run ~host ~path:"/f" ~concurrency:8 ~requests:60 ~on_done:(fun r -> out := Some r);
  Aster.Kernel.run ();
  match !out with
  | Some r ->
    check_int "all served" 60 r.Apps.Ab.requests;
    check "throughput positive" true (r.Apps.Ab.rps > 100.)
  | None -> Alcotest.fail "ab did not finish"

let prop_tcp_stream_integrity =
  QCheck.Test.make ~name:"tcp_loopback_streams_arrive_intact" ~count:6
    QCheck.(list_of_size (Gen.int_range 1 12) (int_range 1 20000))
    (fun chunks ->
      ignore (boot ());
      let total = List.fold_left ( + ) 0 chunks in
      let received = Buffer.create total in
      let expect = Buffer.create total in
      List.iteri
        (fun i n -> Buffer.add_string expect (String.make n (Char.chr (65 + (i mod 26)))))
        chunks;
      ignore
        (Aster.Process.spawn_kernel_style ~name:"sink" (fun uapi ->
             let c = Apps.Libc.make uapi in
             let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
             ignore (Apps.Libc.bind_inet c ~fd ~port:7100);
             ignore (Apps.Libc.listen c ~fd ~backlog:2);
             let conn = Apps.Libc.accept c ~fd in
             let buf = Apps.Libc.ualloc c 65536 in
             let continue = ref true in
             while !continue do
               let n = Apps.Libc.read c ~fd:conn ~vaddr:buf ~len:65536 in
               if n <= 0 then continue := false
               else Buffer.add_bytes received (Apps.Libc.get_bytes c buf n)
             done;
             0));
      ignore
        (Aster.Process.spawn_kernel_style ~name:"src" (fun uapi ->
             let c = Apps.Libc.make uapi in
             let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
             let lo = Aster.Packet.ip_of_string "127.0.0.1" in
             let rec wait n =
               if Apps.Libc.connect_inet c ~fd ~ip:lo ~port:7100 >= 0 then true
               else if n = 0 then false
               else begin
                 ignore (Apps.Libc.nanosleep_us c 200.);
                 wait (n - 1)
               end
             in
             if wait 30 then begin
               List.iteri
                 (fun i n ->
                   let payload = String.make n (Char.chr (65 + (i mod 26))) in
                   let v = Apps.Libc.put_bytes c (Bytes.of_string payload) in
                   let sent = ref 0 in
                   while !sent < n do
                     let w = Apps.Libc.write c ~fd ~vaddr:(v + !sent) ~len:(n - !sent) in
                     if w <= 0 then sent := n else sent := !sent + w
                   done)
                 chunks;
               ignore (Apps.Libc.shutdown c ~fd)
             end;
             0));
      Aster.Kernel.run ();
      Buffer.contents received = Buffer.contents expect)

let test_ext2_many_files_stress () =
  let code =
    run_user (fun c ->
        ignore (Apps.Libc.mkdir c "/ext2/stress");
        let failures = ref 0 in
        (* Create 40 files with distinct content, verify, delete half,
           verify survivors and free-space recovery. *)
        for i = 1 to 40 do
          let fd =
            Apps.Libc.openf c (Printf.sprintf "/ext2/stress/f%02d" i) ~flags:0o101 ~mode:0o644
          in
          if Apps.Libc.write_str c ~fd (Printf.sprintf "content-%04d" i) < 0 then incr failures;
          ignore (Apps.Libc.close c fd)
        done;
        let free_before = Aster.Ext2.free_blocks () in
        for i = 1 to 40 do
          if i mod 2 = 0 then
            if Apps.Libc.unlink c (Printf.sprintf "/ext2/stress/f%02d" i) < 0 then incr failures
        done;
        for i = 1 to 40 do
          let path = Printf.sprintf "/ext2/stress/f%02d" i in
          let exists = Apps.Libc.access c path = 0 in
          if i mod 2 = 0 && exists then incr failures;
          if i mod 2 = 1 then begin
            if not exists then incr failures
            else begin
              let fd = Apps.Libc.openf c path ~flags:0 ~mode:0 in
              if Apps.Libc.read_str c ~fd ~len:64 <> Printf.sprintf "content-%04d" i then
                incr failures;
              ignore (Apps.Libc.close c fd)
            end
          end
        done;
        if Aster.Ext2.free_blocks () < free_before then incr failures;
        let dfd = Apps.Libc.openf c "/ext2/stress" ~flags:0 ~mode:0 in
        let names = List.map (fun (_, _, n) -> n) (Apps.Libc.getdents c ~fd:dfd) in
        let survivors = List.init 20 (fun k -> Printf.sprintf "f%02d" ((2 * k) + 1)) in
        (match names with
        | "." :: ".." :: rest when List.sort compare rest = survivors -> ()
        | _ -> incr failures);
        !failures)
  in
  Alcotest.(check int) "no failures" 0 code

let () =
  Alcotest.run "apps"
    [
      ( "packet",
        [
          Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "decode_is_a_view" `Quick test_packet_decode_is_a_view;
          Alcotest.test_case "bad_input" `Quick test_packet_bad_input;
          Alcotest.test_case "ip_strings" `Quick test_ip_strings;
          Alcotest.test_case "checksum_flip_sweep" `Quick test_checksum_flip_sweep;
        ] );
      ( "libc",
        [
          Alcotest.test_case "file_calls" `Quick test_libc_file_calls;
          Alcotest.test_case "dup_cwd" `Quick test_libc_dup_umask_cwd;
          Alcotest.test_case "readv_writev" `Quick test_libc_readv_writev;
          Alcotest.test_case "open_path_at_mapping_end" `Quick test_open_path_at_mapping_end;
          Alcotest.test_case "poll_pipe" `Quick test_poll_on_pipe;
          Alcotest.test_case "clock" `Quick test_clock_monotonic;
          Alcotest.test_case "getrandom" `Quick test_getrandom;
        ] );
      ("redis", [ Alcotest.test_case "protocol" `Quick test_redis_protocol ]);
      ( "sqlite",
        [
          Alcotest.test_case "insert_lookup" `Quick test_sqlite_insert_lookup;
          Alcotest.test_case "range_ops" `Quick test_sqlite_range_update_delete;
          Alcotest.test_case "text_vacuum" `Quick test_sqlite_text_keys_and_vacuum;
        ] );
      ("stress", [ Alcotest.test_case "ext2_many_files" `Quick test_ext2_many_files_stress ]);
      ( "workloads",
        [
          Alcotest.test_case "speedtest1" `Slow test_speedtest1_structure;
          Alcotest.test_case "fio" `Quick test_fio_sane;
          Alcotest.test_case "lmbench_spot" `Quick test_lmbench_spot;
          Alcotest.test_case "nginx" `Quick test_nginx_smoke;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_packet_roundtrip;
            prop_segmentation;
            prop_tso_frames_decode_to_views;
            prop_single_byte_flip_rejected;
            prop_word_replacement_rejected;
            prop_sqlite_random_inserts;
            prop_tcp_stream_integrity;
          ] );
    ]
