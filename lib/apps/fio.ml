type result = { write_mb_s : float; read_cold_mb_s : float; read_mb_s : float }

let chunk = 64 * 1024

let run c ~file ~mbytes =
  let total = mbytes * 1024 * 1024 in
  let buf = Libc.ualloc c chunk in
  (* Sequential write + fsync per 1 MiB: every block reaches the device. *)
  let fd = Libc.openf c file ~flags:0o102 ~mode:0o644 in
  let t0 = Sim.Time.now () in
  let written = ref 0 in
  while !written < total do
    let n = Libc.write c ~fd ~vaddr:buf ~len:chunk in
    if n <= 0 then written := total
    else begin
      written := !written + n;
      if !written mod (1024 * 1024) = 0 then ignore (Libc.fsync c fd)
    end
  done;
  ignore (Libc.fsync c fd);
  let write_us = Sim.Time.to_us (Sim.Time.now () - t0) in
  ignore (Libc.close c fd);
  let seq_read () =
    let fd = Libc.openf c file ~flags:0 ~mode:0 in
    let t = Sim.Time.now () in
    let got = ref 0 in
    let continue = ref true in
    while !continue do
      let n = Libc.read c ~fd ~vaddr:buf ~len:chunk in
      if n <= 0 then continue := false else got := !got + n
    done;
    let us = Sim.Time.to_us (Sim.Time.now () - t) in
    ignore (Libc.close c fd);
    Runner.mb_per_s ~bytes_moved:!got ~us
  in
  (* Cold sequential read: evict the buffer cache first so every byte
     crosses the virtio-blk path — the phase batching and readahead are
     supposed to speed up. *)
  ignore (Aster.Block.drop_clean ());
  let read_cold_mb_s = seq_read () in
  (* Warm read back: the cache now holds the file, so this measures the
     cached path like fio on a warm page cache. *)
  let read_mb_s = seq_read () in
  { write_mb_s = Runner.mb_per_s ~bytes_moved:total ~us:write_us; read_cold_mb_s; read_mb_s }

(* fsync-heavy variant (fio --fsync=1): one fsync per chunk, the
   commit-latency shape a database WAL generates. With the ext2 journal
   on, every fsync is a full transaction commit — two barriers and an
   FUA commit record — so this is the worst case for journaling
   overhead, where the 4 KiB-granularity [write_mb_s] throughput prices
   each barrier. *)
let run_fsync c ~file ~mbytes =
  let fchunk = 4096 in
  let total = mbytes * 1024 * 1024 in
  let buf = Libc.ualloc c fchunk in
  let fd = Libc.openf c file ~flags:0o102 ~mode:0o644 in
  let t0 = Sim.Time.now () in
  let written = ref 0 in
  let fsyncs = ref 0 in
  while !written < total do
    let n = Libc.write c ~fd ~vaddr:buf ~len:fchunk in
    if n <= 0 then written := total
    else begin
      written := !written + n;
      if Libc.fsync c fd = 0 then incr fsyncs
    end
  done;
  let us = Sim.Time.to_us (Sim.Time.now () - t0) in
  ignore (Libc.close c fd);
  (Runner.mb_per_s ~bytes_moved:total ~us, !fsyncs)
