let block_size = 4096

let sectors_per_block = block_size / 512

type op = Read | Write | Write_fua | Flush

(* A bio is also its own attempt: the block layer resubmits the same
   record on a retry, and the driver reports each attempt through
   [attempt_done], which never touches the final outcome. Only the
   block layer completes a bio, once, with [complete_bio]. *)
type bio = {
  op : op;
  sector : int;
  frame : Ostd.Frame.t option;
  len : int;
  mutable status : int option; (* the final outcome, set once *)
  mutable attempt : int; (* the current attempt's device status; [in_flight] until it answers *)
  wq : Ostd.Wait_queue.t;
  (* kspan ownership: the request span this bio belongs to (0 = none),
     captured at creation, so the owner survives merges, batch splits
     and the retry ladder. *)
  span : int;
  created : Sim.Time.t;
  mutable issued : Sim.Time.t; (* driver pushed this attempt to the device; 0 = never *)
  mutable dev_done : Sim.Time.t; (* device-written completion stamp; 0 = unknown *)
}

let in_flight = -1

let make_bio op ~sector ?frame ~len () =
  (match (op, frame) with
  | (Read | Write | Write_fua), None ->
    Ostd.Panic.panic "Block.make_bio: data op without a buffer"
  | _ -> ());
  let span = Sim.Span.current () in
  (* Span-ownership conservation: one creation count per span-owned
     bio; completion counts exactly once (span.bio_completed), so the
     two counters must agree across merges, batch splits and per-bio
     EIO fallback. *)
  if span > 0 then Sim.Stats.incr "span.bio_created";
  {
    op; sector; frame; len; status = None; attempt = in_flight; wq = Ostd.Wait_queue.create ();
    span; created = Sim.Time.now ();
    issued = 0; dev_done = 0;
  }

let bio_op bio = bio.op

let bio_sector bio = bio.sector

let bio_frame bio = bio.frame

let bio_len bio = bio.len

let note_issued bio = if bio.issued = 0 then bio.issued <- Sim.Time.now ()

let attempt_done bio ~status ~stamp =
  if stamp > 0 then bio.dev_done <- stamp;
  bio.attempt <- status;
  ignore (Ostd.Wait_queue.wake_all bio.wq)

(* A new attempt starts with no answer and no device stamps. *)
let begin_attempt bio =
  bio.attempt <- in_flight;
  bio.issued <- 0;
  bio.dev_done <- 0

let complete_bio bio ~status =
  bio.status <- Some status;
  (* Waterfall segments for the owning span, recorded once: queue wait
     (creation → device issue), device service (issue → the device's
     completion stamp), and IRQ-delivery delay (stamp → this completion
     running), all from the attempt that completed the bio. Missing
     stamps degrade gracefully — the whole interval collapses into the
     earlier leg. *)
  if bio.span > 0 then begin
    let now = Sim.Time.now () in
    let q_end = if bio.issued > 0 then bio.issued else now in
    Sim.Span.add_to bio.span "blk.queue" bio.created q_end;
    if bio.issued > 0 then begin
      let s_end = if bio.dev_done > 0 then bio.dev_done else now in
      Sim.Span.add_to bio.span "blk.service" bio.issued s_end;
      if bio.dev_done > 0 then
        Sim.Span.add_to bio.span "blk.irq" bio.dev_done now
    end;
    Sim.Span.count_bio_completed ()
  end;
  ignore (Ostd.Wait_queue.wake_all bio.wq)

module type DRIVER = sig
  val capacity_sectors : unit -> int
  val submit : bio -> unit
  val submit_many : bio array -> first:int -> len:int -> unit
  val cancel : bio -> unit
end

let driver : (module DRIVER) option ref = ref None

let register_driver d = driver := Some d

let the_driver () =
  match !driver with
  | Some d -> d
  | None -> Ostd.Panic.panic "Block: no block driver registered"

let capacity_sectors () =
  let (module D) = the_driver () in
  D.capacity_sectors ()

(* --- Per-bio deadlines with bounded retry ---

   A request that the device errors, delays past its deadline, or drops
   outright (no status write, no interrupt — the hostile-device
   behaviour Inv. 6 anticipates) is retried with an exponentially
   growing deadline and backoff; after [bio_max_attempts] the bio fails
   with the device's errno (EIO for a timeout). Nothing below the block
   layer can therefore hang or panic a caller. *)

let bio_max_attempts = 5

let bio_deadline_cycles attempt =
  (* 8 ms virtual for the first try, doubling, capped at 64 ms. *)
  Sim.Time.of_us (8000. *. float_of_int (1 lsl min attempt 3))

let backoff_cycles attempt = Sim.Time.of_us (100. *. float_of_int (1 lsl attempt))

(* Wait until the current attempt answers or the deadline passes. In
   task context we sleep on the bio's wait queue with a timer; at early
   boot (mkfs / mount before tasks exist) we poll the event loop. *)
let wait_with_deadline bio ~cycles =
  match Ostd.Task.current_opt () with
  | Some _ ->
    let timed_out = ref false in
    let ev =
      Sim.Events.schedule_after cycles (fun () ->
          timed_out := true;
          ignore (Ostd.Wait_queue.wake_all bio.wq))
    in
    Ostd.Wait_queue.sleep_until bio.wq (fun () -> bio.attempt <> in_flight || !timed_out);
    Sim.Events.cancel ev;
    if bio.attempt <> in_flight then `Done else `Timeout
  | None ->
    let deadline = Sim.Time.now () + cycles in
    let rec poll () =
      if bio.attempt <> in_flight then `Done
      else if Sim.Time.now () > deadline then `Timeout
      else if Sim.Events.run_next () then poll ()
      else `Timeout (* the device went silent: no completion will ever come *)
    in
    poll ()

let op_name = function
  | Read -> "read"
  | Write -> "write"
  | Write_fua -> "write_fua"
  | Flush -> "flush"

(* Bio tracepoints carry the op's name as their string field and the
   sector and length as their first two int fields. [write] is 0 for a
   read, 1 for a write and 2 for a flush. *)
let bio_point name fields extra =
  Sim.Trace.point Sim.Trace.Blk name (Array.append [| "sector"; "len" |] fields) (fun f ->
      Printf.sprintf "op=%s sector=%d len=%d %s" f.s f.a f.b (extra f))

let tp_issue = bio_point "issue" [| "write"; "attempt" |] (fun f -> Printf.sprintf "attempt=%d" f.d)

(* A bio that gives up completes with its errno as [status]. *)
let tp_complete =
  bio_point "complete" [| "write"; "lat_ns"; "status"; "attempts" |] (fun f ->
      if f.e = 0 then Printf.sprintf "attempts=%d" f.f
      else Printf.sprintf "attempts=%d errno=%d" f.f f.e)

let tp_retry =
  bio_point "retry" [| "attempt"; "errno" |] (fun f -> Printf.sprintf "attempt=%d errno=%d" f.c f.d)

let batch_point name =
  Sim.Trace.point Sim.Trace.Blk name [| "sector"; "nreq" |] (fun f ->
      Printf.sprintf "op=%s sector=%d nreq=%d" f.s f.a f.b)

let tp_batch_issue = batch_point "batch_issue"

let tp_batch_complete = batch_point "batch_complete"

let tp_batch_split = batch_point "batch_split"

let write_code = function Read -> 0 | Write | Write_fua -> 1 | Flush -> 2

let trace_issue bio ~attempt =
  Sim.Trace.emit_s tp_issue (op_name bio.op) bio.sector bio.len (write_code bio.op) attempt 0 0

let trace_complete bio ~t0 ~status ~attempts =
  Sim.Trace.emit_s tp_complete (op_name bio.op) bio.sector bio.len (write_code bio.op)
    (Sim.Time.to_ns (Sim.Time.now () - t0))
    status attempts

(* Attempt [n] of [bio], first submitted at [t0]; the bio is completed
   exactly once, with the final outcome, whatever the attempts did. *)
let rec attempt ((module D : DRIVER) as d) bio ~t0 n =
  begin_attempt bio;
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.blk_issue;
  trace_issue bio ~attempt:n;
  D.submit bio;
  match wait_with_deadline bio ~cycles:(bio_deadline_cycles n) with
  | `Done when bio.attempt = 0 ->
    if n > 0 then Sim.Stats.incr "degrade.recovered.blk_bio";
    Sim.Hist.observe "blk.bio" (Sim.Time.now () - t0);
    trace_complete bio ~t0 ~status:0 ~attempts:(n + 1);
    complete_bio bio ~status:0;
    Ok ()
  | `Done -> retry_or_fail d bio ~t0 n bio.attempt
  | `Timeout ->
    Sim.Stats.incr "blk.bio_timeout";
    (* The device may still complete the stale request later; the
       driver quarantines its buffers so late DMA cannot land in reused
       memory, and forgets it, so the answer never reaches this bio. *)
    D.cancel bio;
    retry_or_fail d bio ~t0 n Errno.eio

and retry_or_fail d bio ~t0 n e =
  if n + 1 >= bio_max_attempts then begin
    Sim.Stats.incr "degrade.gave_up.blk_bio";
    Sim.Hist.observe "blk.bio" (Sim.Time.now () - t0);
    (* No attempt completed the bio, so its span gets no device legs. *)
    bio.issued <- 0;
    bio.dev_done <- 0;
    trace_complete bio ~t0 ~status:e ~attempts:(n + 1);
    complete_bio bio ~status:e;
    Error e
  end
  else begin
    Sim.Stats.incr "degrade.retried.blk_bio";
    Sim.Trace.emit_s tp_retry (op_name bio.op) bio.sector bio.len n e 0 0;
    (match Ostd.Task.current_opt () with
    | Some _ -> Ostd.Task.sleep_cycles (backoff_cycles n)
    | None -> ());
    attempt d bio ~t0 (n + 1)
  end

let submit_and_wait bio =
  let d = the_driver () in
  let t0 = Sim.Time.now () in
  (* kprof: block-layer time (issue, waits, retries) folds under "blk". *)
  Sim.Prof.scope "blk" (fun () -> attempt d bio ~t0 0)

(* --- Batched submission (the plug/unplug request queue) ---

   [submit_batch] sector-sorts its bios and merges adjacent same-op bios
   into multi-request descriptor chains, each issued with one
   [blk_issue] charge, one doorbell, and one completion interrupt, under
   a single shared deadline. A batch in which any request errors or
   times out is split back into per-bio [submit_and_wait] attempts, so
   the retry/EIO story stays exactly the single-bio one. *)

let max_batch = 32

let op_rank = function Read -> 0 | Write -> 1 | Write_fua -> 2 | Flush -> 3

(* One deadline for the whole chain: first-attempt bio deadline plus a
   per-request allowance comfortably above the device's per-descriptor
   service time. *)
let batch_deadline_cycles n = Sim.Time.of_us (8000. +. (250. *. float_of_int n))

(* Wait for every bio of the run against one shared absolute deadline,
   reusing the per-bio wait (works in task context and boot-time
   polling). *)
let wait_batch bios ~first ~len ~cycles =
  let deadline = Sim.Time.now () + cycles in
  for k = first to first + len - 1 do
    let b = bios.(k) in
    if b.attempt = in_flight then begin
      let remaining = deadline - Sim.Time.now () in
      if remaining > 0 then ignore (wait_with_deadline b ~cycles:remaining)
    end
  done

(* Complete a bio whose batched attempt succeeded. *)
let complete_batched bio ~t0 ~lat =
  Sim.Hist.observe "blk.bio" lat;
  trace_complete bio ~t0 ~status:0 ~attempts:1;
  complete_bio bio ~status:0

(* Issue [bios.(first .. first + len - 1)], one run of same-op,
   sector-adjacent requests, as one descriptor chain. *)
let issue_run bios ~first ~len =
  let (module D) = the_driver () in
  if len = 1 then ignore (submit_and_wait bios.(first))
  else begin
    let head = bios.(first) and last = first + len - 1 in
    Sim.Stats.add "blk.merge" (len - 1);
    Sim.Stats.incr "blk.batch";
    Sim.Prof.scope "blk" (fun () ->
        let t0 = Sim.Time.now () in
        Sim.Trace.emit_s tp_batch_issue (op_name head.op) head.sector len 0 0 0 0;
        for k = first to last do
          begin_attempt bios.(k)
        done;
        Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.blk_issue;
        for k = first to last do
          trace_issue bios.(k) ~attempt:0
        done;
        D.submit_many bios ~first ~len;
        wait_batch bios ~first ~len ~cycles:(batch_deadline_cycles len);
        let all_ok = ref true in
        for k = first to last do
          if bios.(k).attempt <> 0 then all_ok := false
        done;
        if !all_ok then begin
          let lat = Sim.Time.now () - t0 in
          Sim.Trace.emit_s tp_batch_complete (op_name head.op) head.sector len 0 0 0 0;
          for k = first to last do
            complete_batched bios.(k) ~t0 ~lat
          done
        end
        else begin
          (* Mid-batch error or timeout: quarantine what never completed
             and fall back to per-bio submission, whose retry ladder and
             EIO propagation the callers already rely on. *)
          Sim.Stats.incr "blk.batch_split";
          Sim.Trace.emit_s tp_batch_split (op_name head.op) head.sector len 0 0 0 0;
          for k = first to last do
            if bios.(k).attempt = in_flight then D.cancel bios.(k)
          done;
          for k = first to last do
            let bio = bios.(k) in
            if bio.attempt = 0 then complete_batched bio ~t0 ~lat:(Sim.Time.now () - t0)
            else ignore (submit_and_wait bio)
          done
        end)
  end

(* Sort [a.(0 .. n - 1)] in place so that no element is [after] the
   next. Insertion sort is stable, allocates nothing, and is linear on
   the sorted input the block layer's callers nearly always pass. *)
let sort_prefix after a n =
  for i = 1 to n - 1 do
    let x = a.(i) and j = ref (i - 1) in
    while !j >= 0 && after a.(!j) x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let bio_after a b = op_rank a.op > op_rank b.op || (a.op = b.op && a.sector > b.sector)

(* Two sorted neighbours join a run when they are the same mergeable op
   and sector-adjacent. *)
let adjacent p b = p.op = b.op && b.op <> Flush && b.sector = p.sector + (p.len / 512)

let submit_batch bios n =
  if (Sim.Profile.get ()).Sim.Profile.blk_batching then begin
    sort_prefix bio_after bios n;
    let i = ref 0 in
    while !i < n do
      let j = ref (!i + 1) in
      while !j < n && !j - !i < max_batch && adjacent bios.(!j - 1) bios.(!j) do
        incr j
      done;
      issue_run bios ~first:!i ~len:(!j - !i);
      i := !j
    done
  end
  else
    for i = 0 to n - 1 do
      ignore (submit_and_wait bios.(i))
    done

(* --- Buffer cache --- *)

(* Keyed by block number. The hash is the polymorphic table's, so the
   buckets — and [drop_clean]'s walk over them, which orders the frames
   it frees — are exactly what they would be in a generic table. *)
module Btbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type centry = {
  cblock : int;
  cframe : Ostd.Frame.t;
  mutable dslot : int; (* index in [dirty_set] while dirty, else -1 *)
  mutable prefetched : bool;
}

let cache : centry Btbl.t = Btbl.create 1024

let is_dirty e = e.dslot >= 0

(* Every dirty entry, packed into [dirty_set.(0 .. dirty_len - 1)], so
   [sync] visits the dirty blocks and not the whole cache. *)
let dirty_set : centry array ref = ref [||]

let dirty_len = ref 0

let dirty_blocks () = !dirty_len

let dirty_add e =
  if !dirty_len = Array.length !dirty_set then begin
    let grown = Array.make (Int.max 64 (2 * !dirty_len)) e in
    Array.blit !dirty_set 0 grown 0 !dirty_len;
    dirty_set := grown
  end;
  !dirty_set.(!dirty_len) <- e;
  e.dslot <- !dirty_len;
  incr dirty_len

(* Swap the last dirty entry into [e]'s slot. *)
let dirty_remove e =
  if e.dslot >= 0 then begin
    decr dirty_len;
    let last = !dirty_set.(!dirty_len) in
    !dirty_set.(e.dslot) <- last;
    last.dslot <- e.dslot;
    e.dslot <- -1
  end

(* Background-writeback bookkeeping (dirty_ratio-style throttling). *)
let dirty_fifo : int Queue.t = Queue.create ()

let flusher_running = ref false

let throttle_wq = ref (Ostd.Wait_queue.create ())

let bg_dirty_threshold = 768

let hard_dirty_limit = 4096

(* Sticky writeback errors, errseq_t-style: background writeback runs
   in softirq context and cannot raise, so a block whose retries are
   exhausted bumps a global error sequence (and the data is dropped —
   counted as [degrade.gave_up.writeback]). Every interested party
   samples the sequence when it starts caring (a file at open(2), the
   legacy sync(2) consumer at its last report) and later asks "did an
   error happen since my sample?" — so an fsync on an affected file
   observes the loss even if some other sync(2) caller reported it
   first, exactly Linux's errseq_t semantics. *)
let wb_err_seq = ref 0

let wb_err_code = ref 0

(* The module-level sample backing the legacy first-caller-consumes
   behaviour of [sync]. *)
let sync_sample = ref 0

let record_wb_err e =
  incr wb_err_seq;
  wb_err_code := e

let wb_errseq () = !wb_err_seq

let wb_check ~since =
  if !wb_err_seq > since then Error (!wb_err_seq, !wb_err_code) else Ok ()

(* Journal-pinned blocks: the journal has logged these and not yet
   checkpointed them, so their home location on disk must not be
   overwritten — writeback (background or sync) skips them until the
   journal unpins. *)
let pinned : unit Btbl.t = Btbl.create 64

let is_pinned blockno = Btbl.mem pinned blockno

(* Bumped whenever a block may have left the cache, or a block a caller
   asked for may not have arrived: [reset], a [drop_clean] that dropped
   anything, and a prefetch whose read failed. These are the only ways
   a block leaves the cache, so while the epoch stands still every block
   once found cached or prefetched is still cached. *)
let epoch = ref 0

let cache_epoch () = !epoch

let reset () =
  incr epoch;
  throttle_wq := Ostd.Wait_queue.create ();
  driver := None;
  (* Frames belong to the old boot's metadata; just forget them. *)
  Btbl.reset cache;
  dirty_set := [||];
  dirty_len := 0;
  Queue.clear dirty_fifo;
  flusher_running := false;
  Btbl.reset pinned;
  wb_err_seq := 0;
  wb_err_code := 0;
  sync_sample := 0

let entry_of blockno ~fill =
  match Btbl.find cache blockno with
  | e ->
    (* A demand hit on a block readahead brought in: the window paid off. *)
    if e.prefetched then begin
      e.prefetched <- false;
      Sim.Stats.incr "blk.readahead.hit"
    end;
    e
  | exception Not_found ->
    let cframe = Ostd.Frame.alloc () in
    if fill then begin
      Sim.Stats.incr "blk.readahead.miss";
      let bio =
        make_bio Read ~sector:(blockno * sectors_per_block) ~frame:cframe ~len:block_size ()
      in
      match submit_and_wait bio with
      | Ok () -> ()
      | Error e ->
        (* A read the device cannot serve even after retries is a
           service failure, not an invariant violation: the frame is
           dropped and EIO propagates to whoever asked. *)
        Ostd.Frame.drop cframe;
        Ostd.Panic.failf ~errno:e "buffer cache: read of block %d failed" blockno
    end
    else Ostd.Untyped.fill cframe ~off:0 ~len:block_size '\000';
    let e = { cblock = blockno; cframe; dslot = -1; prefetched = false } in
    Btbl.add cache blockno e;
    e

let read_block blockno = (entry_of blockno ~fill:true).cframe

let read_from_block blockno ~off ~buf ~pos ~len =
  let e = entry_of blockno ~fill:true in
  Sim.Cost.charge_memcpy len;
  Ostd.Untyped.read_bytes e.cframe ~off ~buf ~pos ~len

(* Readahead / plug back end: pull a set of not-yet-cached blocks in
   with one batched submission and insert the successes as clean
   entries. Failures are dropped silently — this is a hint, and the
   demand read that eventually wants the block will retry (and report)
   on its own. [mark] distinguishes speculative readahead (entries
   tagged so a later demand hit counts [blk.readahead.hit]) from
   batching the demand range itself, which is not speculation. The
   blocks are [blocks.(0 .. n - 1)], which this sorts in place; the
   misses, ascending and without repeats, are compacted to its front. *)
let prefetch_blocks ?(mark = true) blocks ~n =
  sort_prefix (fun (a : int) b -> a > b) blocks n;
  let m = ref 0 and prev = ref (-1) in
  for i = 0 to n - 1 do
    let b = blocks.(i) in
    if b <> !prev then begin
      prev := b;
      if not (Btbl.mem cache b) then begin
        blocks.(!m) <- b;
        incr m
      end
    end
  done;
  let m = !m in
  if m > 0 then begin
    if mark then Sim.Stats.add "blk.readahead.issued" m else Sim.Stats.add "blk.plug_read" m;
    let read b =
      make_bio Read ~sector:(b * sectors_per_block) ~frame:(Ostd.Frame.alloc ()) ~len:block_size ()
    in
    let bios = Array.make m (read blocks.(0)) in
    for i = 1 to m - 1 do
      bios.(i) <- read blocks.(i)
    done;
    submit_batch bios m;
    for i = 0 to m - 1 do
      let bio = bios.(i) in
      let b = bio.sector / sectors_per_block in
      match bio.frame with
      | Some f ->
        if bio.status = Some 0 && not (Btbl.mem cache b) then
          Btbl.add cache b { cblock = b; cframe = f; dslot = -1; prefetched = mark }
        else begin
          if bio.status <> Some 0 then incr epoch;
          Ostd.Frame.drop f
        end
      | None -> ()
    done
  end

(* Drop every clean entry (used by cold-cache benchmark phases). Dirty
   blocks stay — dropping them would lose data — and so do journal-pinned
   ones: their home location on disk is stale by definition, so a
   re-read would resurrect pre-transaction bytes. Returns the count. *)
let drop_clean () =
  let victims =
    Btbl.fold
      (fun b e acc -> if (not (is_dirty e)) && not (is_pinned b) then (b, e) :: acc else acc)
      cache []
  in
  List.iter
    (fun (b, e) ->
      Btbl.remove cache b;
      Ostd.Frame.drop e.cframe)
    victims;
  if victims <> [] then incr epoch;
  List.length victims

(* Write back [entries.(0 .. n - 1)] as merged, batched writes; the
   array is sorted by block in place. [submit_batch] guarantees every
   bio is complete on return; a block whose write failed even after the
   per-bio retry ladder is dropped with the errseq-style sticky error
   (softirq context cannot raise, and keeping it dirty would make the
   flusher spin on it). *)
let writeback_many entries n =
  (* Sort (so adjacent dirty blocks merge) and dedup: the FIFO can name
     a block twice, and writing it twice would corrupt [dirty_set].
     Journal-pinned blocks are skipped: their home location must stay
     untouched until the journal checkpoints them. *)
  sort_prefix (fun a b -> a.cblock > b.cblock) entries n;
  let m = ref 0 and prev = ref (-1) in
  for i = 0 to n - 1 do
    let e = entries.(i) in
    if e.cblock <> !prev then begin
      prev := e.cblock;
      if is_dirty e && not (is_pinned e.cblock) then begin
        entries.(!m) <- e;
        incr m
      end
    end
  done;
  let m = !m in
  if m > 0 then begin
    let write e =
      make_bio Write ~sector:(e.cblock * sectors_per_block) ~frame:e.cframe ~len:block_size ()
    in
    let bios = Array.make m (write entries.(0)) in
    for i = 1 to m - 1 do
      bios.(i) <- write entries.(i)
    done;
    (* Sorted by block already, the bios keep their order, so [bios.(i)]
       still writes [entries.(i)]. *)
    submit_batch bios m;
    for i = 0 to m - 1 do
      (match bios.(i).status with
      | Some 0 -> ()
      | Some err ->
        Sim.Stats.incr "degrade.gave_up.writeback";
        record_wb_err err
      | None -> assert false);
      dirty_remove entries.(i)
    done
  end

(* Background flusher: drain up to 512 dirty blocks from the FIFO per
   round, sorted and merged into batched writes (writeback coalescing —
   adjacent dirty blocks of a sequential writer become one chain). *)
let rec flush_batch () =
  let budget = ref 512 in
  let continue = ref true in
  let victims = ref [] in
  while !continue && !budget > 0 do
    match Queue.take_opt dirty_fifo with
    | None -> continue := false
    | Some blockno -> (
      match Btbl.find cache blockno with
      (* A journal-pinned victim is parked: it leaves the FIFO (so the
         flusher cannot spin on it) and is re-queued when the journal
         unpins it at checkpoint. *)
      | e when is_dirty e && not (is_pinned blockno) ->
        victims := e :: !victims;
        decr budget
      | _ | (exception Not_found) -> ())
  done;
  let victims = Array.of_list !victims in
  writeback_many victims (Array.length victims);
  ignore (Ostd.Wait_queue.wake_all !throttle_wq);
  (* Recurse only while the FIFO can still make progress: with every
     remaining dirty block pinned, another round would busy-spin. *)
  if dirty_blocks () > bg_dirty_threshold && not (Queue.is_empty dirty_fifo) then
    flush_batch ()
  else flusher_running := false

let maybe_start_writeback () =
  if !dirty_len > bg_dirty_threshold && not !flusher_running then begin
    flusher_running := true;
    Softirq.queue_work flush_batch
  end;
  (* dirty_ratio hard wall: writers stall until the flusher catches up
     (only meaningful in task context). *)
  if !dirty_len > hard_dirty_limit && Ostd.Task.current_opt () <> None then
    Ostd.Wait_queue.sleep_until !throttle_wq (fun () -> !dirty_len <= hard_dirty_limit)

(* Every path that turns a clean block dirty goes through here. *)
let set_dirty blockno e =
  if not (is_dirty e) then begin
    dirty_add e;
    Queue.push blockno dirty_fifo;
    maybe_start_writeback ()
  end

let write_to_block blockno ~off ~buf ~pos ~len =
  let whole = off = 0 && len = block_size in
  let e = entry_of blockno ~fill:(not whole) in
  Sim.Cost.charge_memcpy len;
  Ostd.Untyped.write_bytes e.cframe ~off ~buf ~pos ~len;
  set_dirty blockno e

let zero_block blockno =
  let e = entry_of blockno ~fill:false in
  Ostd.Untyped.fill e.cframe ~off:0 ~len:block_size '\000';
  set_dirty blockno e

(* Journal pinning. [unpin] re-queues a still-dirty block for
   writeback: the flusher may have parked it (dropped it from the FIFO
   without writing) while it was pinned. *)
let pin blockno = Btbl.replace pinned blockno ()

let unpin blockno =
  if Btbl.mem pinned blockno then begin
    Btbl.remove pinned blockno;
    match Btbl.find cache blockno with
    | e when is_dirty e -> Queue.push blockno dirty_fifo
    | _ | (exception Not_found) -> ()
  end

let flush_device () =
  Sim.Stats.incr "blk.flush";
  let bio = make_bio Flush ~sector:0 ~len:0 () in
  submit_and_wait bio

(* Write [buf] to [blockno] on the device, bypassing the cache entry
   entirely. The journal checkpoints a frozen (committed) image this
   way while the cache already holds newer uncommitted bytes. Reaches
   the volatile device cache only — follow with [flush_device] (or a
   [sync]) for durability. *)
let write_through blockno buf =
  let scratch = Ostd.Frame.alloc () in
  Ostd.Untyped.write_bytes scratch ~off:0 ~buf ~pos:0 ~len:block_size;
  let bio =
    make_bio Write ~sector:(blockno * sectors_per_block) ~frame:scratch ~len:block_size ()
  in
  let r = submit_and_wait bio in
  Ostd.Frame.drop scratch;
  r

(* FUA write of one cached block: write-through, durable before this
   returns. The journal's commit record rides on this — it must not
   linger in the device's volatile cache behind the transaction it
   seals. *)
let write_block_fua blockno =
  match Btbl.find cache blockno with
  | exception Not_found -> Ok ()
  | e ->
    Sim.Stats.incr "blk.fua";
    let bio =
      make_bio Write_fua ~sector:(blockno * sectors_per_block) ~frame:e.cframe
        ~len:block_size ()
    in
    let r = submit_and_wait bio in
    (match r with
    | Ok () ->
      dirty_remove e
    | Error _ -> ());
    r

(* Legacy sync(2) consumption: report an error once to the first sync
   caller after it happened, via the module-level errseq sample. *)
let consume_wb_err () =
  match wb_check ~since:!sync_sample with
  | Error (seq, code) ->
    sync_sample := seq;
    Error code
  | Ok () -> Ok ()

(* [sync]/[sync_blocks] always end in a device flush: earlier
   background writeback may have parked data in the device's volatile
   cache, and pushing pages to the driver is not durability. *)
let sync () =
  writeback_many (Array.sub !dirty_set 0 !dirty_len) !dirty_len;
  let flushed = flush_device () in
  match consume_wb_err () with Error _ as e -> e | Ok () -> flushed

let sync_blocks blocks =
  let dirty = ref [] in
  for i = 0 to Array.length blocks - 1 do
    match Btbl.find cache blocks.(i) with
    | e when is_dirty e -> dirty := e :: !dirty
    | _ | (exception Not_found) -> ()
  done;
  let dirty = Array.of_list !dirty in
  writeback_many dirty (Array.length dirty);
  let flushed = flush_device () in
  match consume_wb_err () with Error _ as e -> e | Ok () -> flushed

(* Durability crosscheck for the chaos soak: re-read every clean cached
   block straight from the device and byte-compare against the cache.
   Right after a successful [sync] every block is clean, so a non-zero
   mismatch count means data was lost or corrupted on its way to
   stable storage. Runs in polling mode too (after [Kernel.run]
   returns). Returns [(blocks_checked, mismatches)]. *)
let verify_cache_against_device () =
  let entries = Btbl.fold (fun b e acc -> (b, e) :: acc) cache [] in
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  let scratch = Ostd.Frame.alloc () in
  let want = Bytes.create block_size in
  let got = Bytes.create block_size in
  let checked = ref 0 in
  let mismatches = ref 0 in
  List.iter
    (fun (blockno, e) ->
      if not (is_dirty e) then begin
        let bio =
          make_bio Read ~sector:(blockno * sectors_per_block) ~frame:scratch ~len:block_size ()
        in
        match submit_and_wait bio with
        | Ok () ->
          incr checked;
          Ostd.Untyped.read_bytes e.cframe ~off:0 ~buf:want ~pos:0 ~len:block_size;
          Ostd.Untyped.read_bytes scratch ~off:0 ~buf:got ~pos:0 ~len:block_size;
          if not (Bytes.equal want got) then incr mismatches
        | Error _ ->
          (* Can't read it back at all: that is a mismatch with stable
             storage as far as durability is concerned. *)
          incr checked;
          incr mismatches
      end)
    entries;
  Ostd.Frame.drop scratch;
  (!checked, !mismatches)
