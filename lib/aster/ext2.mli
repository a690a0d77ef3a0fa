(** Ext2-style file system on the block device.

    On-disk layout (4 KiB blocks): superblock, block bitmap, inode
    bitmap, inode table, write-ahead journal area, then data blocks.
    Inodes address data through 12 direct pointers, one indirect and one
    double-indirect block, like ext2 proper. All I/O goes through the
    {!Block} buffer cache; [fsync] forces a file's data to the device
    with a flush barrier and then commits the metadata transaction (with
    [ext2_journal] on in the profile — off, it syncs data and metadata
    blocks directly, with no atomicity across a crash). *)

val mkfs : unit -> unit
(** Format the registered block device (journal included when the
    profile enables it). *)

val mount : unit -> Vfs.inode
(** Read the superblock, replay the journal (profile permitting), and
    return the root inode. Panics if the device does not contain an
    ext2 image. *)

val sync_fs : unit -> (unit, int) result
(** The sync(2) back end: commit the running journal transaction,
    checkpoint, then write back and flush everything else. *)

val block_size : int
val max_file_blocks : int

(* Layout, exposed for the fsck-style checker and the crash harness. *)
val sb_block : int
val block_bitmap : int
val inode_bitmap : int
val inode_table_start : int
val first_data_block : int
val ninodes : int
val root_ino : int

val free_blocks : unit -> int
val free_inodes : unit -> int
