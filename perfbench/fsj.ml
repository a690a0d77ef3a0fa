(* fs_journal: one guest process on /ext2 with the journal on.

   A table file of fixed 4 KiB records is preloaded, then a seeded mix
   runs: a get reads one random record; a put overwrites one, appends
   a record to a log file and fsyncs the log; a scan drops the clean
   block cache and reads an extent of records sequentially. Every get
   and scan must return the bytes of the last acknowledged put. The
   guest program is its own client: it times each op on the virtual
   clock around its calls. *)

let record = 4096
let records = 2048 (* an 8 MiB table *)
let extent = 32 (* records per scan *)
let log_record = 64

let table = "/ext2/perfbench.tbl"
let log = "/ext2/perfbench.log"

type op = Get of int | Put of int | Scan of int

(* Reads and updates half and half, as YCSB's workload A (Cooper et al.,
   "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010): exactly
   40% gets, 50% puts and 10% scans, in seeded order on uniformly chosen
   records. One read in five is an extent scan, so readahead is
   measured. That share also puts the median a fifth of the way into
   the puts, clear of the gets and of the cheapest puts, which cost the
   same virtual time on every seed. *)
let make_plan ~seed ~ops =
  let rng = Random.State.make [| seed; 0xf5 |] in
  let kinds = Array.init ops (fun i -> i * 10 / ops) in
  Pstats.shuffle rng kinds;
  Array.map
    (fun k ->
      if k < 4 then Get (Random.State.int rng records)
      else if k < 9 then Put (Random.State.int rng records)
      else Scan (Random.State.int rng (records - extent + 1)))
    kinds

(* Record bytes are a function of (index, version): a header naming
   both, then a fill that depends on both. *)
let fill_record buf ~idx ~v =
  let head = Printf.sprintf "rec %08d ver %08d\n" idx v in
  Bytes.blit_string head 0 buf 0 (String.length head);
  let seed = (idx * 31) + (v * 17) in
  for k = String.length head to record - 1 do
    Bytes.unsafe_set buf k (Char.unsafe_chr (97 + ((seed + k) mod 26)))
  done

(* Per-call-kind host cost of the guest's syscalls, measured from
   outside the kernel by wrapping the program's syscall entry. *)
type sys_cost = { mutable calls : int; mutable ns : int64; mutable words : float }

let sys_kinds = [ ("pread", Aster.Syscall_nr.pread64); ("pwrite", Aster.Syscall_nr.pwrite64); ("fsync", Aster.Syscall_nr.fsync) ]

let wrap_sys costs (u : Ostd.User.uapi) =
  let sys nr args =
    match List.assoc_opt nr costs with
    | None -> u.Ostd.User.sys nr args
    | Some c ->
      let t0 = Meter.wall_ns () and w0 = Meter.host_words () in
      let r = u.Ostd.User.sys nr args in
      c.calls <- c.calls + 1;
      c.ns <- Int64.add c.ns (Int64.sub (Meter.wall_ns ()) t0);
      c.words <- c.words +. (Meter.host_words () -. w0);
      r
  in
  { u with Ostd.User.sys }

let program ~meter ~plan u =
  let c = Apps.Libc.make u in
  let buf = Apps.Libc.ualloc c (record * extent) in
  let scratch = Bytes.create record in
  let expect = Bytes.create record in
  let version = Array.make records 0 in
  let fd = Apps.Libc.openf c table ~flags:0o102 ~mode:0o644 in
  let lfd = Apps.Libc.openf c log ~flags:0o2102 ~mode:0o644 (* O_APPEND|O_CREAT|O_RDWR *) in
  if fd < 0 || lfd < 0 then failwith "perfbench: cannot create the fs_journal files";
  let mem_write = (Apps.Libc.raw c).Ostd.User.mem_write in
  let mem_read = (Apps.Libc.raw c).Ostd.User.mem_read in
  (* Preload: every record at version 0, made durable. *)
  for idx = 0 to records - 1 do
    fill_record scratch ~idx ~v:0;
    mem_write buf scratch;
    if Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:record ~off:(idx * record) <> record then
      failwith "perfbench: fs_journal preload write failed"
  done;
  if Apps.Libc.fsync c fd <> 0 then failwith "perfbench: fs_journal preload fsync failed";
  let check_at vaddr idx =
    mem_read vaddr scratch;
    fill_record expect ~idx ~v:version.(idx);
    Bytes.equal scratch expect
  in
  let get idx =
    let n = Apps.Libc.pread c ~fd ~vaddr:buf ~len:record ~off:(idx * record) in
    if n < 0 then Error (Meter.Errno "pread")
    else if n <> record then Error Meter.Short
    else if check_at buf idx then Ok record
    else Error Meter.Mismatch
  in
  let put idx =
    let v = version.(idx) + 1 in
    fill_record scratch ~idx ~v;
    mem_write buf scratch;
    let n = Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:record ~off:(idx * record) in
    if n < 0 then Error (Meter.Errno "pwrite")
    else if n <> record then Error Meter.Short
    else begin
      let line = Printf.sprintf "put %08d ver %08d" idx v in
      let entry = Bytes.make log_record ' ' in
      Bytes.blit_string line 0 entry 0 (String.length line);
      Bytes.set entry (log_record - 1) '\n';
      mem_write buf entry;
      let n = Apps.Libc.write c ~fd:lfd ~vaddr:buf ~len:log_record in
      if n < 0 then Error (Meter.Errno "write")
      else if n <> log_record then Error Meter.Short
      else if Apps.Libc.fsync c lfd <> 0 then Error (Meter.Errno "fsync")
      else begin
        version.(idx) <- v;
        Ok (record + log_record)
      end
    end
  in
  let scan first =
    ignore (Aster.Block.drop_clean ());
    let rec go i =
      if i = extent then Ok (record * extent)
      else
        let idx = first + i in
        let vaddr = buf + (i * record) in
        let n = Apps.Libc.pread c ~fd ~vaddr ~len:record ~off:(idx * record) in
        if n < 0 then Error (Meter.Errno "pread")
        else if n <> record then Error Meter.Short
        else if check_at vaddr idx then go (i + 1)
        else Error Meter.Mismatch
    in
    go 0
  in
  Array.iter
    (fun op ->
      match Meter.issue meter with
      | None -> ()
      | Some tk ->
        (* kspan request boundary, as the apps draw one per request:
           no syscall, no virtual cycles. *)
        Sim.Span.annotate_begin ~cls:"fs"
          ~name:(match op with Get _ -> "get" | Put _ -> "put" | Scan _ -> "scan");
        let r = match op with Get i -> get i | Put i -> put i | Scan i -> scan i in
        Sim.Span.annotate_end ();
        Meter.complete meter tk r)
    plan;
  ignore (Apps.Libc.close c lfd);
  ignore (Apps.Libc.close c fd);
  0

(* Spawn the guest program; the caller runs the kernel. With [instr],
   its pread/pwrite/fsync calls are timed per kind. *)
let start ~meter ~seed ~instr =
  let plan = make_plan ~seed ~ops:meter.Meter.total in
  let costs = List.map (fun (name, nr) -> (nr, (name, { calls = 0; ns = 0L; words = 0. }))) sys_kinds in
  let by_nr = List.map (fun (nr, (_, c)) -> (nr, c)) costs in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"fs-journal" (fun u ->
         program ~meter ~plan (if instr then wrap_sys by_nr u else u)));
  List.map snd costs
