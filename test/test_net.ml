(* Network conformance suite for the batched virtio-net TX/RX pipeline.

   The batching/coalescing knobs are performance knobs, not behaviour
   knobs: the application-visible byte stream must be identical with
   them on or off, error paths (handshake timeout, checksum rejection)
   must survive burst submission, and a stuck NIC must leak — not
   recycle — the DMA buffers it still owns. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let pattern len = Bytes.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

(* Guest -> host transfer of [size] patterned bytes over the virtio NIC.
   Returns (client exit, bytes the host application received, clean EOF
   seen). Boots its own kernel, so Stats cover exactly this run; the
   fault plane (armed after boot, which resets it) covers the whole
   transfer including the handshake. *)
let transfer ?(profile = Sim.Profile.asterinas) ?(port = 9009) ?(chunk = 8192) ?faults ~size () =
  let k = Apps.Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  (match faults with Some (seed, schedule) -> Sim.Fault.configure ~seed schedule | None -> ());
  let sink = Buffer.create size in
  let eof = ref false in
  (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port with
  | Error _ -> Alcotest.fail "host listen"
  | Ok l ->
    ignore
      (Ostd.Task.spawn ~name:"host-sink" (fun () ->
           let conn = Aster.Tcp.accept l in
           let buf = Bytes.create 16384 in
           let continue = ref true in
           while !continue do
             match Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384 with
             | Ok 0 ->
               eof := true;
               continue := false
             | Ok n -> Buffer.add_subbytes sink buf 0 n
             | Error _ -> continue := false
           done;
           Aster.Tcp.close conn)));
  let rc = ref (-1) in
  Apps.Runner.spawn ~name:"guest-src" (fun c ->
      let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
      if Apps.Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port < 0 then begin
        rc := 1;
        1
      end
      else begin
        let data = pattern size in
        let sent = ref 0 in
        let ok = ref true in
        while !ok && !sent < size do
          let len = min chunk (size - !sent) in
          let b = Bytes.sub data !sent len in
          let n = Apps.Libc.write c ~fd ~vaddr:(Apps.Libc.put_bytes c b) ~len in
          if n <= 0 then ok := false else sent := !sent + n
        done;
        ignore (Apps.Libc.close c fd);
        rc := (if !ok then 0 else 2);
        !rc
      end);
  Apps.Runner.run ();
  (!rc, Buffer.contents sink, !eof)

(* --- Conformance: batching is invisible at the application layer --- *)

let test_batched_matches_unbatched () =
  let size = 192 * 1024 in
  (* One write of the whole stream: with TSO each segment is a
     super-segment of up to 64 KiB, so a burst holds several only when
     a single syscall queues more than that. *)
  let rc_b, bytes_b, eof_b = transfer ~chunk:size ~size () in
  let bursts = Sim.Stats.get "net.burst" in
  let queued = Sim.Stats.get "net.tx_queued" in
  let rc_u, bytes_u, eof_u =
    transfer
      ~profile:{ Sim.Profile.asterinas with net_tx_batching = false; net_irq_coalesce = false }
      ~chunk:size ~size ()
  in
  let bursts_u = Sim.Stats.get "net.burst" in
  check_int "batched client exits cleanly" 0 rc_b;
  check_int "unbatched client exits cleanly" 0 rc_u;
  check "batched sink saw EOF" true eof_b;
  check "unbatched sink saw EOF" true eof_u;
  check "batched payload matches the pattern" true
    (String.equal bytes_b (Bytes.to_string (pattern size)));
  check "batched and unbatched payloads byte-identical" true (String.equal bytes_b bytes_u);
  check "batched run submitted bursts" true (bursts > 0);
  check "bursts amortise segments" true (bursts < queued);
  check_int "unbatched run submitted no bursts" 0 bursts_u

(* --- Handshake timeout survives batching ---

   With the link dropping every frame, connect's SYN retransmission
   ladder — segments emitted from event context, flushed through the
   plugged TX queue — must still run its course and surface ETIMEDOUT,
   not hang and not error differently. *)

let test_etimedout_under_batching () =
  ignore (Apps.Runner.boot ~profile:Sim.Profile.asterinas);
  Sim.Fault.configure ~seed:3L [ ("net.drop", 1.0) ];
  let rc = ref 0 in
  Apps.Runner.spawn ~name:"guest-conn" (fun c ->
      let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
      rc := Apps.Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port:7;
      0);
  Apps.Runner.run ();
  Sim.Fault.disable ();
  check_int "connect fails with ETIMEDOUT" (-Aster.Errno.etimedout) !rc;
  check "the SYN was retransmitted before giving up" true
    (Sim.Stats.get "degrade.retried.tcp_syn" > 0);
  check "drops were actually injected" true (Sim.Stats.get "virtio_net.injected_drop" > 0)

(* --- Checksum rejection mid-burst ---

   Frames corrupted inside a descriptor chain are rejected at the
   receiver — by the NIC's checksum verdict on the guest side — and
   repaired by retransmission; the stream stays byte-exact and the
   corruption never reaches the application. *)

let test_checksum_rejects_corrupt_mid_burst () =
  let size = 128 * 1024 in
  let rc, bytes, _eof = transfer ~faults:(9L, [ ("net.corrupt", 0.02) ]) ~size () in
  Sim.Fault.disable ();
  check_int "client exits cleanly despite corruption" 0 rc;
  check "corruption was actually injected" true
    (Sim.Stats.get "virtio_net.injected_corrupt" > 0);
  check "checksum verdicts rejected the mangled frames" true
    (Sim.Stats.get "net.checksum_drop" > 0);
  check "bursts were in flight while the plane was armed" true (Sim.Stats.get "net.burst" > 0);
  check "payload repaired to byte-exactness" true
    (String.equal bytes (Bytes.to_string (pattern size)))

(* --- Quarantine accounting: a stuck NIC leaks pool slots ---

   An injected tx_drop means the device never writes the status word.
   The driver's burst deadline must quarantine the buffer: unmap it
   without returning it to the DMA pool (a late DMA must fault at the
   IOMMU, not land in reused memory), count the leak under
   net.pool_leaked, and report the frame upstack — where, with no
   owning connection, it lands in net.tx_err_unclaimed. One chain of
   [nseg] descriptors goes out; [p] is the drop probability per
   descriptor. Returns how many the device dropped. *)

let nseg = 4

let tx_drop_burst ~seed ~p =
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  ignore (Aster.Kernel.attach_host k);
  Sim.Fault.configure ~seed [ ("net.tx_drop", p) ];
  Apps.Runner.spawn ~name:"raw-tx" (fun c ->
      for i = 0 to nseg - 1 do
        Aster.Netstack.send k.Aster.Kernel.stack
          (Aster.Packet.make ~src_ip:Aster.Kernel.guest_ip ~dst_ip:Aster.Kernel.host_ip
             ~proto:Aster.Packet.Tcp ~src_port:555 ~dst_port:556 ~flags:0
             (Bytes.make 64 (Char.chr (65 + i))))
      done;
      Aster.Netstack.flush_all ();
      (* Sleep past the burst deadline (500 us + 20 us/desc) so the
         quarantine event fires while the clock still advances. *)
      ignore (Apps.Libc.nanosleep_us c 2000.);
      0);
  Apps.Runner.run ();
  Sim.Fault.disable ();
  let dropped = Sim.Stats.get "virtio_net.dropped_completion" in
  check_int "every dropped frame was quarantined" dropped (Sim.Stats.get "virtio_net.quarantined");
  check_int "every quarantined pooled buffer is a leaked slot" dropped
    (Sim.Stats.get "net.pool_leaked");
  check_int "orphan frames reported but unclaimed by any socket" dropped
    (Sim.Stats.get "net.tx_err_unclaimed");
  check_int "no frame reached the wire" 0 (Sim.Stats.get "virtio_net.dma_fault");
  dropped

let test_tx_drop_quarantines_and_leaks_pool () =
  check_int "the device dropped the whole burst" nseg (tx_drop_burst ~seed:5L ~p:1.0)

(* The chain completes in part: reaping its completed buffers must not
   take the deadline that still watches the dropped ones. *)
let test_tx_drop_partial_chain () =
  let dropped = tx_drop_burst ~seed:1L ~p:0.5 in
  check "the chain completed in part" true (dropped > 0 && dropped < nseg)

(* --- Timers and connections live only as long as their work ---

   A reset connection must stop retransmitting: nothing will ever ACK
   its data. The guest writes 200 KB to a host listener that resets
   the connection right after accept, before any of the data reaches
   it. The run is capped at 2 virtual seconds, in which a surviving
   40 ms RTO would fire about fifty times. *)

let test_reset_with_unacked_data () =
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  let port = 9050 in
  (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port with
  | Error _ -> Alcotest.fail "host listen"
  | Ok l ->
    ignore (Ostd.Task.spawn ~name:"host-abort" (fun () -> Aster.Tcp.abort (Aster.Tcp.accept l))));
  let size = 200 * 1024 in
  let wrote = ref 0 in
  Apps.Runner.spawn ~name:"guest-src" (fun c ->
      let vaddr = Apps.Libc.put_bytes c (pattern size) in
      let fd = Apps.Libc.socket c ~domain:2 ~typ:1 in
      if Apps.Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port < 0 then 1
      else begin
        wrote := Apps.Libc.write c ~fd ~vaddr ~len:size;
        (* Block, so that the host runs its abort before the data
           reaches it. *)
        ignore (Apps.Libc.read_str c ~fd ~len:16);
        ignore (Apps.Libc.close c fd);
        0
      end);
  let cap = Sim.Time.now () + Sim.Time.of_us 2e6 in
  Ostd.Task.run_until (fun () -> Sim.Time.now () >= cap);
  check_int "the whole write was queued before the reset" size !wrote;
  check_int "no retransmission after the reset" 0 (Sim.Stats.get "degrade.retried.tcp_rto");
  check_int "no timer outlives the connection" 0 (Sim.Events.pending ());
  check_int "the guest forgot the connection" 0 (Aster.Tcp.conn_count k.Aster.Kernel.tcp);
  check_int "the host forgot the connection" 0 (Aster.Tcp.conn_count host.Aster.Kernel.htcp)

(* Connection churn: sequential HTTP/1.0 requests to mini_nginx, which
   closes first. Each finished exchange must leave no timer behind (the
   handshake retransmits and the TX deadlines end with their work) and
   no entry in either TCP table. Between requests only a few events are
   live (3 here); a handshake timer left armed would add two per
   connection made in the last 40 virtual ms. *)

let test_connection_churn () =
  let requests = 600 in
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  Apps.Mini_nginx.spawn ~requests ~sizes:[ ("index.html", 4096) ] ();
  let served = ref 0 in
  let max_pending = ref 0 in
  ignore
    (Ostd.Task.spawn ~name:"http-client" (fun () ->
         let req = Bytes.of_string "GET /index.html HTTP/1.0\r\n\r\n" in
         let buf = Bytes.create 8192 in
         let rec request () =
           match
             Aster.Tcp.connect host.Aster.Kernel.htcp ~dst_ip:Aster.Kernel.guest_ip
               ~dst_port:Apps.Mini_nginx.port
           with
           | Error _ ->
             (* The server is not listening yet. *)
             Ostd.Task.sleep_us 200.;
             request ()
           | Ok conn ->
             ignore (Aster.Tcp.send conn ~buf:req ~pos:0 ~len:(Bytes.length req));
             let got = ref 0 in
             let rec drain () =
               match Aster.Tcp.recv conn ~buf ~pos:0 ~len:(Bytes.length buf) with
               | Ok 0 | Error _ -> ()
               | Ok n ->
                 got := !got + n;
                 drain ()
             in
             drain ();
             Aster.Tcp.close conn;
             if !got > 4096 then incr served;
             max_pending := max !max_pending (Sim.Events.pending ())
         in
         for _ = 1 to requests do
           request ()
         done));
  Apps.Runner.run ();
  check_int "every request was served" requests !served;
  check "pending events stay a small constant" true (!max_pending <= 8);
  check_int "the guest table is empty" 0 (Aster.Tcp.conn_count k.Aster.Kernel.tcp);
  check_int "the host table is empty" 0 (Aster.Tcp.conn_count host.Aster.Kernel.htcp)

(* --- Span-ownership conservation across the TX pipeline ---

   With kspan on, every span-owned frame prepared for the NIC must be
   resolved exactly once: reaped on success, reported upstack after the
   retry ladder, or quarantined at the burst deadline. The creation
   counter (prepare_tx) and the resolution counter must agree to the
   unit — through plug bursts, burst splits and retransmissions. *)

let span_transfer ?faults ~size () =
  Sim.Span.enable ();
  Sim.Span.set_auto true;
  let rc, bytes, eof = transfer ?faults ~size () in
  let created = Sim.Stats.get "span.tx_created" in
  let resolved = Sim.Stats.get "span.tx_done" in
  Sim.Span.disable ();
  Sim.Span.set_auto false;
  (rc, bytes, eof, created, resolved)

(* --- Offload conformance: GSO/TSO, GRO, checksum offload, zero-copy ---

   The NIC offloads are the only virtio-net path: super-segment
   descriptors split at device ring time, receive-side merges and
   checksum verdicts must all be invisible in the application byte
   stream, and the zero-copy pin ledger must balance exactly. *)

(* Host -> guest bulk transfer: the direction that exercises guest-side
   GRO (the guest's RX path sees MSS wire frames produced by the host
   bridge's TSO split). Plain tasks on both ends — the guest engine is
   driven directly, like the host sink in [transfer]. *)
let transfer_rx ?(profile = Sim.Profile.asterinas) ?(port = 9020) ?(chunk = 64 * 1024) ?faults
    ~size () =
  let k = Apps.Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  (match faults with Some (seed, schedule) -> Sim.Fault.configure ~seed schedule | None -> ());
  let sink = Buffer.create size in
  let eof = ref false in
  (match Aster.Tcp.listen k.Aster.Kernel.tcp ~port with
  | Error _ -> Alcotest.fail "guest listen"
  | Ok l ->
    ignore
      (Ostd.Task.spawn ~name:"guest-sink" (fun () ->
           let conn = Aster.Tcp.accept l in
           let buf = Bytes.create 16384 in
           let continue = ref true in
           while !continue do
             match Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384 with
             | Ok 0 ->
               eof := true;
               continue := false
             | Ok n -> Buffer.add_subbytes sink buf 0 n
             | Error _ -> continue := false
           done;
           Aster.Tcp.close conn)));
  let rc = ref (-1) in
  ignore
    (Ostd.Task.spawn ~name:"host-src" (fun () ->
         match
           Aster.Tcp.connect host.Aster.Kernel.htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:port
         with
         | Error _ -> rc := 1
         | Ok conn ->
           let data = pattern size in
           let sent = ref 0 in
           let ok = ref true in
           while !ok && !sent < size do
             let len = min chunk (size - !sent) in
             match Aster.Tcp.send conn ~buf:data ~pos:!sent ~len with
             | Ok n -> sent := !sent + n
             | Error _ -> ok := false
           done;
           Aster.Tcp.close conn;
           rc := (if !ok then 0 else 2)));
  Apps.Runner.run ();
  (!rc, Buffer.contents sink, !eof)

let test_tso_splits_at_the_device () =
  (* The guest hands the NIC super-segments; the device cuts them into
     MSS wire frames, and the receiver sees the exact byte stream. *)
  let size = 192 * 1024 in
  let rc, bytes, eof = transfer ~size () in
  let extra_frames = Sim.Stats.get "virtio_net.tso_frames" in
  let descriptors = Aster.Virtio_net_drv.tx_packets () in
  check_int "client exits cleanly" 0 rc;
  check "sink saw EOF" true eof;
  check "payload matches the pattern" true (String.equal bytes (Bytes.to_string (pattern size)));
  check "the device split super-segments" true (extra_frames > 0);
  check "the stream left the guest in fewer descriptors than MSS payloads" true
    (descriptors < size / Aster.Packet.mss);
  check "every MSS payload reached the wire as its own frame" true
    (descriptors + extra_frames >= size / Aster.Packet.mss)

let test_gro_coalesces_rx () =
  let size = 256 * 1024 in
  let rc, bytes, eof = transfer_rx ~size () in
  let merged = Sim.Stats.get "net.gro_merged" in
  let rx_calls = Sim.Stats.get "tcp.rx_calls" in
  check_int "client exits cleanly" 0 rc;
  check "sink saw EOF" true eof;
  check "payload byte-exact through GRO merges" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check "GRO merged wire frames" true (merged > 0);
  (* Without GRO the stack would take one entry per MSS wire frame. *)
  check "GRO cuts per-segment stack entries" true (rx_calls * 2 < size / Aster.Packet.mss)

let test_gro_flushes_across_psh_boundaries () =
  (* Small sends: each 8 KiB write drains the sender's queue, so its
     last segment carries PSH and flushes the receive-side merge — the
     stream must interleave correctly across many such boundaries. *)
  let size = 128 * 1024 in
  let rc, bytes, eof = transfer_rx ~chunk:8192 ~size () in
  check_int "client exits cleanly" 0 rc;
  check "sink saw EOF" true eof;
  check "payload byte-exact across PSH flush boundaries" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check "merging still happened between the flushes" true (Sim.Stats.get "net.gro_merged" > 0)

let test_tso_mid_super_segment_failure () =
  (* tx_fail acts on a whole descriptor: a failed super-segment must
     ride the retry ladder as a unit and resubmit every wire frame it
     would have produced — no torn or missing MSS frames at the sink. *)
  let size = 128 * 1024 in
  (* With TSO a 128 KiB stream is only ~18 descriptors, so the per-
     descriptor failure rate is high to guarantee hits for this seed. *)
  let rc, bytes, _eof = transfer ~faults:(11L, [ ("net.tx_fail", 0.3) ]) ~size () in
  Sim.Fault.disable ();
  check_int "client exits cleanly despite TX failures" 0 rc;
  check "failures were actually injected" true
    (Sim.Stats.get "virtio_net.injected_tx_fail" > 0);
  check "super-segments were split by the device" true
    (Sim.Stats.get "virtio_net.tso_frames" > 0);
  check "failed descriptors rode the retry ladder" true
    (Sim.Stats.get "degrade.retried.net_tx" > 0);
  check "payload repaired to byte-exactness" true
    (String.equal bytes (Bytes.to_string (pattern size)))

let test_csum_offload_rejects_corruption () =
  (* Host -> guest, so the corrupted data frames land on the guest's RX
     path, where the device's verdict is the only checksum check: the
     mangled frames must be dropped before GRO merges them, and
     retransmission must repair the stream. *)
  let size = 128 * 1024 in
  let rc, bytes, eof = transfer_rx ~faults:(9L, [ ("net.corrupt", 0.02) ]) ~size () in
  Sim.Fault.disable ();
  check_int "client exits cleanly despite corruption" 0 rc;
  check "sink saw EOF" true eof;
  check "corruption was actually injected" true
    (Sim.Stats.get "virtio_net.injected_corrupt" > 0);
  check "device verdicts rejected the mangled frames" true
    (Sim.Stats.get "net.checksum_drop" > 0);
  check "GRO still merged the clean frames" true (Sim.Stats.get "net.gro_merged" > 0);
  check "payload repaired to byte-exactness" true
    (String.equal bytes (Bytes.to_string (pattern size)))

(* --- Zero-copy sendfile: pins balance and the copy ledger collapses --- *)

let sendfile_run ?(profile = Sim.Profile.asterinas) ?(port = 9030) ?faults ~size () =
  let k = Apps.Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  (match faults with Some (seed, schedule) -> Sim.Fault.configure ~seed schedule | None -> ());
  let handles = Ostd.Frame.live_handles () in
  let sink = Buffer.create size in
  let eof = ref false in
  (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port with
  | Error _ -> Alcotest.fail "host listen"
  | Ok l ->
    ignore
      (Ostd.Task.spawn ~name:"host-sink" (fun () ->
           let conn = Aster.Tcp.accept l in
           let buf = Bytes.create 16384 in
           let continue = ref true in
           while !continue do
             match Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384 with
             | Ok 0 ->
               eof := true;
               continue := false
             | Ok n -> Buffer.add_subbytes sink buf 0 n
             | Error _ -> continue := false
           done;
           Aster.Tcp.close conn)));
  let rc = ref (-1) in
  Apps.Runner.spawn ~name:"guest-sendfile" (fun c ->
      (* Write the pattern into a RamFS file, then serve it. *)
      let data = pattern size in
      let fd = Apps.Libc.openf c "/tmp/payload" ~flags:0o101 ~mode:0o644 in
      let written = ref 0 in
      while !written < size do
        let len = min 65536 (size - !written) in
        let b = Bytes.sub data !written len in
        let n = Apps.Libc.write c ~fd ~vaddr:(Apps.Libc.put_bytes c b) ~len in
        if n <= 0 then written := size else written := !written + n
      done;
      ignore (Apps.Libc.close c fd);
      let sfd = Apps.Libc.socket c ~domain:2 ~typ:1 in
      if Apps.Libc.connect_inet c ~fd:sfd ~ip:Aster.Kernel.host_ip ~port < 0 then begin
        rc := 1;
        1
      end
      else begin
        let file = Apps.Libc.openf c "/tmp/payload" ~flags:0 ~mode:0 in
        let sent = ref 0 in
        let ok = ref true in
        while !ok && !sent < size do
          let n = Apps.Libc.sendfile c ~out_fd:sfd ~in_fd:file ~count:(size - !sent) in
          if n <= 0 then ok := false else sent := !sent + n
        done;
        ignore (Apps.Libc.close c file);
        ignore (Apps.Libc.close c sfd);
        ignore (Apps.Libc.unlink c "/tmp/payload");
        rc := (if !ok then 0 else 2);
        !rc
      end);
  Apps.Runner.run ();
  (* With the file gone, every pin and page is back, but the pooled DMA
     buffers a quarantine leaks on purpose. *)
  check_int "every frame handle back" (handles - Sim.Stats.get "net.pool_leaked")
    (Ostd.Frame.live_handles ());
  (!rc, Buffer.contents sink, !eof)

let test_sendfile_zero_copy_pins_balance () =
  let size = 256 * 1024 in
  let rc, bytes, eof = sendfile_run ~size () in
  let pinned = Sim.Stats.get "net.zc_pin" in
  let unpinned = Sim.Stats.get "net.zc_unpin" in
  let copied = Sim.Stats.get "net.bytes_copied" in
  check_int "sendfile client exits cleanly" 0 rc;
  check "sink saw EOF" true eof;
  check "payload byte-exact through the zero-copy path" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check "page-cache frames were pinned" true (pinned > 0);
  check_int "every pin released exactly once" pinned unpinned;
  check "the CPU copied only headers, not payload" true (copied < size)

let test_sendfile_copy_baseline () =
  let size = 256 * 1024 in
  let rc, bytes, eof =
    sendfile_run ~profile:{ Sim.Profile.asterinas with sendfile_zero_copy = false } ~size ()
  in
  let pinned = Sim.Stats.get "net.zc_pin" in
  let copied = Sim.Stats.get "net.bytes_copied" in
  check_int "bounce-path client exits cleanly" 0 rc;
  check "sink saw EOF" true eof;
  check "payload byte-exact through the bounce path" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check_int "the bounce path pins nothing" 0 pinned;
  (* read-into-bounce + bounce memcpy + DMA-buffer copy: >= 3 payload
     traversals, against header-only bytes on the zero-copy path. *)
  check "the bounce path copies the payload at least three times" true (copied >= 3 * size)

let test_sendfile_zero_copy_survives_tx_faults () =
  (* Pin conservation must hold when frames fail mid-flight: give-ups
     and quarantines drop no pin, since the connection holds them until
     the ACK, and RTO retransmits are pinless copies of the slices. *)
  (* Large enough that the stream is many 64 KiB super-segment
     descriptors: per-descriptor fault rolls then fire at these rates
     regardless of seed. *)
  let size = 512 * 1024 in
  let rc, bytes, _eof =
    sendfile_run ~port:9031 ~faults:(11L, [ ("net.tx_fail", 0.3); ("net.tx_drop", 0.05) ]) ~size ()
  in
  Sim.Fault.disable ();
  let pinned = Sim.Stats.get "net.zc_pin" in
  let unpinned = Sim.Stats.get "net.zc_unpin" in
  check_int "client exits cleanly despite TX faults" 0 rc;
  check "faults were actually injected" true
    (Sim.Stats.get "virtio_net.injected_tx_fail" + Sim.Stats.get "virtio_net.dropped_completion"
    > 0);
  check "payload repaired to byte-exactness" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check "frames were pinned" true (pinned > 0);
  check_int "pins balance through retries, give-ups and quarantines" pinned unpinned

(* --- Buffer ownership: only buffers handed over outright are adopted ---

   A sender that overwrites its buffer the moment [Tcp.send] returns,
   as load generators and sendfile's bounce-buffer path do, must still
   deliver the bytes it sent: the stack copies what it is lent. The
   stream mixes sub-MSS and multi-MSS writes, so bytes wait in the send
   queue, the plug queue and the retransmit queue while the buffer is
   scribbled over. *)

let reused_buffer_stream ~guest_to_host =
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  let src, dst, dst_ip =
    if guest_to_host then (k.Aster.Kernel.tcp, host.Aster.Kernel.htcp, Aster.Kernel.host_ip)
    else (host.Aster.Kernel.htcp, k.Aster.Kernel.tcp, Aster.Kernel.guest_ip)
  in
  let port = 9040 in
  let sizes = List.init 48 (fun i -> 1 + (i * 2711 mod 6000)) in
  let sink = Buffer.create 4096 in
  (match Aster.Tcp.listen dst ~port with
  | Error _ -> Alcotest.fail "listen"
  | Ok l ->
    ignore
      (Ostd.Task.spawn ~name:"sink" (fun () ->
           let conn = Aster.Tcp.accept l in
           let buf = Bytes.create 16384 in
           let rec drain () =
             match Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384 with
             | Ok 0 | Error _ -> ()
             | Ok n ->
               Buffer.add_subbytes sink buf 0 n;
               drain ()
           in
           drain ();
           Aster.Tcp.close conn)));
  ignore
    (Ostd.Task.spawn ~name:"reusing-src" (fun () ->
         match Aster.Tcp.connect src ~dst_ip ~dst_port:port with
         | Error _ -> ()
         | Ok conn ->
           let buf = Bytes.create 6000 in
           List.iteri
             (fun i n ->
               Bytes.fill buf 0 n (Char.chr (65 + (i mod 26)));
               ignore (Aster.Tcp.send conn ~buf ~pos:0 ~len:n);
               Bytes.fill buf 0 (Bytes.length buf) '!')
             sizes;
           Aster.Tcp.close conn));
  Apps.Runner.run ();
  let expect =
    String.concat "" (List.mapi (fun i n -> String.make n (Char.chr (65 + (i mod 26)))) sizes)
  in
  check "the receiver got the bytes as sent, not the scribbles" true
    (String.equal (Buffer.contents sink) expect)

let test_reused_buffer_guest_to_host () = reused_buffer_stream ~guest_to_host:true

let test_reused_buffer_host_to_guest () = reused_buffer_stream ~guest_to_host:false

let test_span_tx_conservation () =
  let size = 192 * 1024 in
  let rc, bytes, eof, created, resolved = span_transfer ~size () in
  check_int "client exits cleanly" 0 rc;
  check "sink saw EOF" true eof;
  check "payload is byte-exact under spans" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check "bursts were plugged" true (Sim.Stats.get "net.burst" > 0);
  check "span-owned frames were created" true (created > 0);
  check_int "every span-owned frame resolved exactly once" created resolved

let test_span_tx_conservation_mid_burst_failure () =
  (* Corruption forces retransmission ladders and burst splits; every
     (re)prepared frame still resolves exactly once. *)
  let size = 128 * 1024 in
  let rc, bytes, _eof, created, resolved =
    span_transfer ~faults:(9L, [ ("net.corrupt", 0.02) ]) ~size ()
  in
  Sim.Fault.disable ();
  check_int "client exits cleanly despite corruption" 0 rc;
  check "corruption was actually injected" true
    (Sim.Stats.get "virtio_net.injected_corrupt" > 0);
  check "payload repaired to byte-exactness" true
    (String.equal bytes (Bytes.to_string (pattern size)));
  check "span-owned frames were created" true (created > 0);
  check_int "conservation holds through mid-burst failures" created resolved

let () =
  Alcotest.run "net"
    [
      ( "conformance",
        [
          Alcotest.test_case "batched_matches_unbatched" `Quick test_batched_matches_unbatched;
          Alcotest.test_case "etimedout_under_batching" `Quick test_etimedout_under_batching;
          Alcotest.test_case "checksum_mid_burst" `Quick test_checksum_rejects_corrupt_mid_burst;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "tx_drop_leaks_pool" `Quick test_tx_drop_quarantines_and_leaks_pool;
          Alcotest.test_case "tx_drop_partial_chain" `Quick test_tx_drop_partial_chain;
        ] );
      ( "lifetimes",
        [
          Alcotest.test_case "reset_with_unacked_data" `Quick test_reset_with_unacked_data;
          Alcotest.test_case "connection_churn" `Quick test_connection_churn;
        ] );
      ( "offload",
        [
          Alcotest.test_case "tso_splits_at_the_device" `Quick test_tso_splits_at_the_device;
          Alcotest.test_case "gro_coalesces_rx" `Quick test_gro_coalesces_rx;
          Alcotest.test_case "gro_psh_boundaries" `Quick test_gro_flushes_across_psh_boundaries;
          Alcotest.test_case "tso_mid_super_segment_failure" `Quick
            test_tso_mid_super_segment_failure;
          Alcotest.test_case "csum_offload_rejects_corruption" `Quick
            test_csum_offload_rejects_corruption;
        ] );
      ( "zero-copy",
        [
          Alcotest.test_case "pins_balance" `Quick test_sendfile_zero_copy_pins_balance;
          Alcotest.test_case "copy_baseline" `Quick test_sendfile_copy_baseline;
          Alcotest.test_case "pins_balance_under_faults" `Quick
            test_sendfile_zero_copy_survives_tx_faults;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "reused_send_buffer_guest_to_host" `Quick
            test_reused_buffer_guest_to_host;
          Alcotest.test_case "reused_send_buffer_host_to_guest" `Quick
            test_reused_buffer_host_to_guest;
        ] );
      ( "span-conservation",
        [
          Alcotest.test_case "tx_exactly_once" `Quick test_span_tx_conservation;
          Alcotest.test_case "tx_exactly_once_mid_burst_failure" `Quick
            test_span_tx_conservation_mid_burst_failure;
        ] );
    ]
