type outcome = {
  seed : int64;
  completed : int;
  failed_errno : int;
  hung : int;
  corrupt : int;
  panics : int;
  sync_ok : bool;
  blocks_checked : int;
  mismatches : int;
  fault_log : string list;
  report : (string * int) list;
}

(* Soak-tuned: high enough that every degradation path fires in a short
   run, low enough that bounded retry (5 bio attempts, 4 alloc attempts)
   makes an unrecoverable failure vanishingly rare — the soak asserts
   graceful handling, not behaviour under guaranteed data loss. *)
let default_schedule =
  [
    ("blk.io_error", 0.02);
    ("blk.drop", 0.01);
    ("blk.delay", 0.05);
    ("net.drop", 0.03);
    ("net.corrupt", 0.02);
    ("net.dup", 0.02);
    ("iommu.fault", 0.002);
    ("irq.spurious", 0.01);
    ("irq.storm", 0.002);
    ("alloc.fail", 0.01);
  ]

let nfiles = 4

let chunk = 1024

let file_size = 8 * chunk

let pattern_byte ~file ~off = Char.chr (((file * 37) + (off * 11) + 5) land 0xff)

let errno_ok rc = rc < 0 && -rc >= 1 && -rc <= 133

(* Write a patterned file, fsync it, read it back and verify. Returns
   0 on success, the first negative errno otherwise; read-back
   mismatches bump [corrupt] but still count as completion (the
   interesting signal is silent corruption, tracked separately). *)
let fs_workload c ~i ~corrupt =
  let path = Printf.sprintf "/ext2/chaos%d.dat" i in
  let fd = Libc.openf c path ~flags:0o102 ~mode:0o644 in
  if fd < 0 then fd
  else begin
    let rc = ref 0 in
    let off = ref 0 in
    while !rc = 0 && !off < file_size do
      let b = Bytes.init chunk (fun j -> pattern_byte ~file:i ~off:(!off + j)) in
      let w = Libc.pwrite c ~fd ~vaddr:(Libc.put_bytes c b) ~len:chunk ~off:!off in
      if w < 0 then rc := w
      else if w <> chunk then rc := -Aster.Errno.eio
      else off := !off + chunk
    done;
    if !rc = 0 then begin
      let f = Libc.fsync c fd in
      if f < 0 then rc := f
    end;
    if !rc = 0 then begin
      let off = ref 0 in
      while !rc = 0 && !off < file_size do
        let vaddr = Libc.put_bytes c (Bytes.create chunk) in
        let r = Libc.pread c ~fd ~vaddr ~len:chunk ~off:!off in
        if r < 0 then rc := r
        else if r <> chunk then rc := -Aster.Errno.eio
        else begin
          let got = Libc.get_bytes c vaddr chunk in
          let bad = ref false in
          for j = 0 to chunk - 1 do
            if Bytes.get got j <> pattern_byte ~file:i ~off:(!off + j) then bad := true
          done;
          if !bad then incr corrupt;
          off := !off + chunk
        end
      done
    end;
    ignore (Libc.close c fd);
    !rc
  end

let run ?(profile = Sim.Profile.asterinas) ?(schedule = default_schedule) ~seed () =
  let k = Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  (* Arm the plane only once the kernel is up: boot is common to every
     seed, and mkfs failures are not the degradation story under test. *)
  Sim.Fault.configure ~seed schedule;
  let fs_res = Array.make nfiles None in
  let corrupt = ref 0 in
  for i = 0 to nfiles - 1 do
    Runner.spawn
      ~name:(Printf.sprintf "chaos-fs%d" i)
      (fun c ->
        let rc = fs_workload c ~i ~corrupt in
        fs_res.(i) <- Some rc;
        if rc = 0 then 0 else 1)
  done;
  let net_done = ref None in
  Mini_redis.spawn ();
  Redis_bench.run_op ~host ~op:"SET" ~clients:4 ~requests:120 ~on_done:(fun r ->
      net_done := Some r);
  let panics = ref 0 in
  (try Runner.run ()
   with Ostd.Panic.Kernel_panic msg ->
     incr panics;
     Logs.err (fun m -> m "chaos: kernel panic escaped: %s" msg));
  (* Disarm before the audit: the final sync and the cache-vs-device
     crosscheck are the oracle, not part of the experiment. *)
  Sim.Fault.disable ();
  let sync_ok = match Aster.Block.sync () with Ok () -> true | Error _ -> false in
  let blocks_checked, mismatches = Aster.Block.verify_cache_against_device () in
  let completed = ref 0 and failed_errno = ref 0 and hung = ref 0 in
  Array.iter
    (function
      | Some 0 -> incr completed
      | Some rc when errno_ok rc -> incr failed_errno
      | Some _ | None -> incr hung)
    fs_res;
  (match !net_done with Some _ -> incr completed | None -> incr hung);
  {
    seed;
    completed = !completed;
    failed_errno = !failed_errno;
    hung = !hung;
    corrupt = !corrupt;
    panics = !panics;
    sync_ok;
    blocks_checked;
    mismatches;
    fault_log = Sim.Fault.log ();
    report = Sim.Stats.fault_report ();
  }

(* --- Batched-TX network chaos ---

   Two concurrent guest->host streams while the TX fault plane is hot:
   injected mid-burst failures must split bursts and ride the retry
   ladder, injected drops must quarantine buffers, and every resulting
   soft error must be attributed to the connection that owned the frame
   — never a neighbour sharing the descriptor chain, never dropped on
   the floor. The app-level oracle is each sink being byte-identical to
   its own pattern. *)

type net_outcome = {
  nseed : int64;
  rcs : int * int;  (** client exit codes; 0 = wrote everything *)
  sinks : string * string;  (** bytes each host sink application received *)
  eofs : bool * bool;  (** each sink saw a clean FIN *)
  npanics : int;
  splits : int;  (** net.burst_split: mid-burst errors that split a chain *)
  quarantined : int;  (** buffers leaked to the deadline quarantine *)
  gave_up : int;  (** frames abandoned after the retry ladder *)
  soft_err : int;  (** tcp.tx_soft_err: errors claimed by the owning socket *)
  unclaimed : int;  (** net.tx_err_unclaimed: must stay 0 — no misattribution *)
  injected : int;  (** tx_fail + tx_drop rolls that fired *)
  nfault_log : string list;
}

(* Rolled per TX descriptor. With TSO each 8 KiB write is one
   descriptor, so the two 96 KiB streams are only ~40 of them: hot
   enough that both degradation paths (burst split + quarantine) fire,
   cold enough that TCP's RTO repairs every loss and both streams
   complete. *)
let net_schedule = [ ("net.tx_fail", 0.10); ("net.tx_drop", 0.05) ]

let net_size = 96 * 1024

let net_chunk = 8192

let net_pattern ~stream len =
  Bytes.init len (fun i -> Char.chr (((stream * 53) + (i * 17) + 11) land 0xff))

let net_batch_run ?(profile = Sim.Profile.asterinas) ?(schedule = net_schedule) ~seed () =
  let k = Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  (* Arm only once the kernel is up (boot resets the plane); the armed
     window then covers both handshakes and both full streams. *)
  Sim.Fault.configure ~seed schedule;
  let sinks = [| Buffer.create net_size; Buffer.create net_size |] in
  let eofs = [| false; false |] in
  let rcs = [| -1; -1 |] in
  let start_sink i ~port =
    match Aster.Tcp.listen host.Aster.Kernel.htcp ~port with
    | Error _ -> ()
    | Ok l ->
      ignore
        (Ostd.Task.spawn
           ~name:(Printf.sprintf "chaos-sink%d" i)
           (fun () ->
             let conn = Aster.Tcp.accept l in
             let buf = Bytes.create 16384 in
             let continue = ref true in
             while !continue do
               match Aster.Tcp.recv conn ~buf ~pos:0 ~len:16384 with
               | Ok 0 ->
                 eofs.(i) <- true;
                 continue := false
               | Ok n -> Buffer.add_subbytes sinks.(i) buf 0 n
               | Error _ -> continue := false
             done;
             Aster.Tcp.close conn))
  in
  let start_client i ~port =
    Runner.spawn
      ~name:(Printf.sprintf "chaos-net%d" i)
      (fun c ->
        let fd = Libc.socket c ~domain:2 ~typ:1 in
        if Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port < 0 then begin
          rcs.(i) <- 1;
          1
        end
        else begin
          let data = net_pattern ~stream:i net_size in
          let sent = ref 0 in
          let ok = ref true in
          while !ok && !sent < net_size do
            let len = min net_chunk (net_size - !sent) in
            let b = Bytes.sub data !sent len in
            let n = Libc.write c ~fd ~vaddr:(Libc.put_bytes c b) ~len in
            if n <= 0 then ok := false else sent := !sent + n
          done;
          ignore (Libc.close c fd);
          rcs.(i) <- (if !ok then 0 else 2);
          rcs.(i)
        end)
  in
  start_sink 0 ~port:6001;
  start_sink 1 ~port:6002;
  start_client 0 ~port:6001;
  start_client 1 ~port:6002;
  let npanics = ref 0 in
  (try Runner.run () with Ostd.Panic.Kernel_panic _ -> incr npanics);
  Sim.Fault.disable ();
  {
    nseed = seed;
    rcs = (rcs.(0), rcs.(1));
    sinks = (Buffer.contents sinks.(0), Buffer.contents sinks.(1));
    eofs = (eofs.(0), eofs.(1));
    npanics = !npanics;
    splits = Sim.Stats.get "net.burst_split";
    quarantined = Sim.Stats.get "virtio_net.quarantined";
    gave_up = Sim.Stats.get "degrade.gave_up.net_tx";
    soft_err = Sim.Stats.get "tcp.tx_soft_err";
    unclaimed = Sim.Stats.get "net.tx_err_unclaimed";
    injected =
      Sim.Stats.get "fault.injected.net.tx_fail" + Sim.Stats.get "fault.injected.net.tx_drop";
    nfault_log = Sim.Fault.log ();
  }

(* --- Hung-task injection ---

   A kernel task that charges a long stretch of virtual CPU without
   yielding starves a Ready victim. The always-on hung-task watchdog
   (probe program [watchdog.hung_task] on sched_switch/sched_wakeup)
   must see the victim's runnable wait cross its threshold and fire —
   this is the end-to-end proof that the probe plane observes scheduler
   anomalies no explicit instrumentation was written for. *)

type hang_outcome = {
  victim_rc : int;  (** 0 = the victim still completed once rescued *)
  hog_ms : int;
  wd_fired : int;  (** watchdog.hung_task.fired after the run *)
  wd_maps : string;  (** rendered maps of the watchdog program *)
}

let hang_run ?(profile = Sim.Profile.asterinas) ?(hog_ms = 100) () =
  ignore (Runner.boot ~profile);
  let victim_rc = ref (-1) in
  Runner.spawn ~name:"hang-victim" (fun c ->
      (* yield repeatedly so the victim sits Ready under the hog *)
      for _ = 1 to 50 do
        ignore (Libc.sched_yield c)
      done;
      victim_rc := 0;
      0);
  ignore
    (Ostd.Task.spawn ~name:"chaos-hog" (fun () ->
         (* one long non-yielding stretch of virtual CPU *)
         Sim.Clock.charge (hog_ms * 1000 * Sim.Time.cycles_per_us)));
  Runner.run ();
  {
    victim_rc = !victim_rc;
    hog_ms;
    wd_fired = Sim.Stats.get "watchdog.hung_task.fired";
    wd_maps =
      (match Kprobe.Registry.render_maps "watchdog.hung_task" with
      | Some s -> s
      | None -> "");
  }
