(** Block layer: bios, driver registration, and a 4 KiB buffer cache.

    File systems read and write through the cache (memory speed on hits);
    dirty blocks reach the device on [sync]/[sync_blocks] (fsync) or via
    background writeback. All buffers are untyped frames, as the DMA path
    requires (Inv. 6). *)

val block_size : int
val sectors_per_block : int

type op = Read | Write | Write_fua | Flush

type bio
(** A block request. The block layer submits the same bio again on a
    retry: each submission is an attempt, which the driver answers with
    {!attempt_done}, and the block layer alone gives the bio its final
    outcome, once. *)

val make_bio : op -> sector:int -> ?frame:Ostd.Frame.t -> len:int -> unit -> bio
(** [frame] carries the data for Read/Write/Write_fua; Flush takes none.
    The frame is borrowed for the bio's lifetime. A [Write_fua] is
    write-through: the device persists the sectors before completing. *)

val bio_op : bio -> op
val bio_sector : bio -> int
val bio_frame : bio -> Ostd.Frame.t option
val bio_len : bio -> int

val note_issued : bio -> unit
(** Driver hook: this attempt was pushed to the device (first push
    wins). *)

val attempt_done : bio -> status:int -> stamp:Sim.Time.t -> unit
(** Driver hook: the device answered this attempt with [status] (0 or
    an errno), and wrote completion stamp [stamp] (0 = none), which
    feeds the span's blk.service / blk.irq split. *)

module type DRIVER = sig
  val capacity_sectors : unit -> int

  val submit : bio -> unit
  (** Begin servicing; the answer arrives via [attempt_done]. *)

  val submit_many : bio array -> first:int -> len:int -> unit
  (** Scatter-gather: begin servicing [bios.(first .. first + len -
      1)], a merged run (same op, adjacent sectors, sorted), as one
      descriptor chain with a single doorbell; the device completes the
      chain with one interrupt. Each bio is still answered individually
      via [attempt_done]. *)

  val cancel : bio -> unit
  (** The block layer timed this bio's attempt out. The driver must
      forget it and quarantine any DMA buffers still exposed to the
      device, so a late completion cannot land in reused memory. *)
end

val register_driver : (module DRIVER) -> unit
val capacity_sectors : unit -> int

(** {2 Buffer cache} *)

val read_block : int -> Ostd.Frame.t
(** The cached frame for a block, reading it from the device on a miss.
    The returned frame is owned by the cache — do not drop it. *)

val write_to_block : int -> off:int -> buf:bytes -> pos:int -> len:int -> unit
(** Write through the cache and mark dirty. A partial write of a block
    not yet cached reads it first (read-modify-write); a full-block write
    skips the read. *)

val read_from_block : int -> off:int -> buf:bytes -> pos:int -> len:int -> unit

val zero_block : int -> unit
(** Mark the block cached and zeroed without touching the device (fresh
    allocation). *)

val dirty_blocks : unit -> int

(** {2 Journal pinning}

    The write-ahead journal pins a block once it has logged it:
    writeback (background or sync) must not overwrite the block's home
    location until the journal record is durable and checkpointed.
    Pinned blocks the flusher meets are parked — removed from the
    writeback queue but kept dirty — and re-queued on [unpin]. *)

val pin : int -> unit
val unpin : int -> unit

val write_block_fua : int -> (unit, int) result
(** Write one cached block with FUA (durable on return, bypassing the
    device's volatile cache) and mark it clean. Counts [blk.fua]. A
    block that is not cached is a no-op. *)

val write_through : int -> Bytes.t -> (unit, int) result
(** Write the given bytes to a block on the device without touching its
    cache entry (journal checkpoint of a frozen committed image while
    the cache holds newer bytes). Reaches the device's volatile cache
    only; follow with {!flush_device} for durability. *)

val prefetch_blocks : ?mark:bool -> int array -> n:int -> unit
(** Readahead back end: batch-read [blocks.(0 .. n - 1)] (misses only,
    sorted in place) into
    the cache as clean entries. Read failures are dropped silently —
    readahead is a hint; the demand read retries on its own. With [mark]
    (default), entries are tagged speculative: a later demand hit counts
    [blk.readahead.hit], and blocks issued here count
    [blk.readahead.issued]. [~mark:false] is the plug path — batching
    the demand range itself, counted under [blk.plug_read]. Demand reads
    that reach the device synchronously count [blk.readahead.miss]. *)

val drop_clean : unit -> int
(** Evict every clean cache entry (cold-cache benchmark phases); dirty
    blocks stay. Returns the number of entries dropped. *)

val cache_epoch : unit -> int
(** A counter bumped by [reset], by a [drop_clean] that dropped
    anything, and by a [prefetch_blocks] read that failed. While it
    stands still, every block that was cached or successfully
    prefetched is still cached. *)

val sync : unit -> (unit, int) result
(** Write back every dirty block (journal-pinned blocks excepted) and
    issue a device flush. [Error errno] reports a flush failure or a
    sticky writeback error: background writeback cannot raise, so a
    block it had to drop after exhausting retries is recorded and
    surfaced at the next sync (errseq-style, consumed once reported
    on this legacy path — per-file observers use {!wb_check}). *)

val sync_blocks : int array -> (unit, int) result
(** Write back specific blocks (fsync of one file), then flush. Reports
    errors as [sync] does. *)

(** {2 Writeback error sequencing (errseq_t)} *)

val wb_errseq : unit -> int
(** Current writeback-error sequence; sample it when you start caring
    (e.g. at open(2)). *)

val wb_check : since:int -> (unit, int * int) result
(** Has a writeback error happened after [since]? [Error (seq, errno)]
    reports it along with the new sequence to remember — so every
    observer (each open file, plus the legacy sync(2) consumer) sees an
    error exactly once, independently of the others. *)

val verify_cache_against_device : unit -> int * int
(** Durability crosscheck: re-read every clean cached block from the
    device and byte-compare with the cache. Returns
    [(blocks_checked, mismatches)]; after a successful [sync] a non-zero
    mismatch count means data never reached stable storage. *)

val reset : unit -> unit
(** Forget the driver and drop the cache (new boot). *)
