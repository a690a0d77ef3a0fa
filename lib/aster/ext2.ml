let block_size = Block.block_size

let magic = 0xEF53_2025

(* Layout (block numbers). *)
let sb_block = 0
let block_bitmap = 1
let inode_bitmap = 2
let inode_table_start = 3
let inode_size = 128
let inodes_per_block = block_size / inode_size
let ninodes = 4096
let inode_table_blocks = ninodes / inodes_per_block

(* Write-ahead journal area, between the inode table and the data. *)
let journal_start = inode_table_start + inode_table_blocks
let journal_blocks = 64
let first_data_block = journal_start + journal_blocks

let ptrs_per_block = block_size / 4
let ndirect = 12
let max_file_blocks = ndirect + ptrs_per_block + (ptrs_per_block * ptrs_per_block)

let root_ino = 2

(* Disk inode field offsets. *)
let di_mode = 0
let di_size = 4
let di_nlink = 8
let di_direct = 12 (* 12 x u32 *)
let di_indirect = 60
let di_dindirect = 64

let kind_bits = function
  | Vfs.Dir -> 0x4000
  | Vfs.Reg -> 0x8000
  | Vfs.Lnk -> 0xA000
  | Vfs.Fifo -> 0x1000
  | Vfs.Sock -> 0xC000
  | Vfs.Chr -> 0x2000

let kind_of_bits bits =
  match bits land 0xF000 with
  | 0x4000 -> Vfs.Dir
  | 0xA000 -> Vfs.Lnk
  | 0x1000 -> Vfs.Fifo
  | 0xC000 -> Vfs.Sock
  | 0x2000 -> Vfs.Chr
  | _ -> Vfs.Reg

(* --- Raw block helpers --- *)

let scratch4 = Bytes.create 4

let read_u32_at block off =
  Block.read_from_block block ~off ~buf:scratch4 ~pos:0 ~len:4;
  Int32.to_int (Bytes.get_int32_le scratch4 0) land 0xffffffff

(* Every u32 metadata write (superblock, inode table, indirect blocks)
   funnels through here, so hooking the journal at this choke point
   puts all of them under transaction protection. *)
let write_u32_at block off v =
  Jbd.touch block;
  Bytes.set_int32_le scratch4 0 (Int32.of_int v);
  Block.write_to_block block ~off ~buf:scratch4 ~pos:0 ~len:4

(* --- Superblock --- *)

let sb_magic () = read_u32_at sb_block 0
let sb_free_blocks () = read_u32_at sb_block 12
let sb_free_inodes () = read_u32_at sb_block 16
let set_sb_free_blocks v = write_u32_at sb_block 12 v
let set_sb_free_inodes v = write_u32_at sb_block 16 v

let free_blocks () = sb_free_blocks ()
let free_inodes () = sb_free_inodes ()

(* --- Bitmaps --- *)

let bit_get bitmap_block i =
  Block.read_from_block bitmap_block ~off:(i / 8) ~buf:scratch4 ~pos:0 ~len:1;
  Bytes.get_uint8 scratch4 0 land (1 lsl (i mod 8)) <> 0

let bit_set bitmap_block i v =
  Jbd.touch bitmap_block;
  Block.read_from_block bitmap_block ~off:(i / 8) ~buf:scratch4 ~pos:0 ~len:1;
  let b = Bytes.get_uint8 scratch4 0 in
  let b = if v then b lor (1 lsl (i mod 8)) else b land lnot (1 lsl (i mod 8)) in
  Bytes.set_uint8 scratch4 0 b;
  Block.write_to_block bitmap_block ~off:(i / 8) ~buf:scratch4 ~pos:0 ~len:1

let device_blocks () = Block.capacity_sectors () / Block.sectors_per_block

let alloc_hint = ref first_data_block

let alloc_block () =
  let total = min (device_blocks ()) (block_size * 8) in
  let rec scan i tried =
    if tried > total then Ostd.Panic.panic "ext2: out of disk blocks"
    else
      let i = if i >= total then first_data_block else i in
      if bit_get block_bitmap i then scan (i + 1) (tried + 1)
      else begin
        bit_set block_bitmap i true;
        set_sb_free_blocks (sb_free_blocks () - 1);
        alloc_hint := i + 1;
        Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.fs_new_page;
        Block.zero_block i;
        i
      end
  in
  scan !alloc_hint 0

let free_block b =
  bit_set block_bitmap b false;
  set_sb_free_blocks (sb_free_blocks () + 1)

let alloc_ino () =
  let rec scan i =
    if i >= ninodes then Ostd.Panic.panic "ext2: out of inodes"
    else if bit_get inode_bitmap i then scan (i + 1)
    else begin
      bit_set inode_bitmap i true;
      set_sb_free_inodes (sb_free_inodes () - 1);
      i
    end
  in
  scan root_ino

let free_ino i =
  bit_set inode_bitmap i false;
  set_sb_free_inodes (sb_free_inodes () + 1)

(* --- Disk inodes --- *)

(* Where inode [ino] lives: its inode-table block and its offset there. *)
let di_metadata_block ino = inode_table_start + (ino / inodes_per_block)

let di_base ino = ino mod inodes_per_block * inode_size

let di_read ino field = read_u32_at (di_metadata_block ino) (di_base ino + field)

let di_write ino field v = write_u32_at (di_metadata_block ino) (di_base ino + field) v

(* Map a file block index to a device block, optionally allocating;
   0 is a hole (block 0 is the superblock, never file data).

   Freshly allocated blocks are zeroed: a reused block still carries its
   previous life's content (in the page cache or on disk), and a mapping
   block consulted slot-by-slot would otherwise resurrect stale pointers
   after truncate freed and recycled it. *)
let zeroes = Bytes.make block_size '\000'

(* The block the u32 slot at [off] of block [blk] points to. An empty
   slot reads 0, or with [alloc] gets a fresh zeroed block; [map] marks
   a mapping (indirect) block, which the journal covers. *)
let slot blk off ~alloc ~map =
  let cur = read_u32_at blk off in
  if cur <> 0 || not alloc then cur
  else begin
    let b = alloc_block () in
    if map then Jbd.touch b;
    Block.write_to_block b ~off:0 ~buf:zeroes ~pos:0 ~len:block_size;
    write_u32_at blk off b;
    b
  end

let bmap ino fblock ~alloc =
  if fblock < 0 || fblock >= max_file_blocks then
    Ostd.Panic.panicf "ext2: file block %d beyond maximum" fblock;
  let iblk = di_metadata_block ino and base = di_base ino in
  if fblock < ndirect then slot iblk (base + di_direct + (4 * fblock)) ~alloc ~map:false
  else if fblock < ndirect + ptrs_per_block then begin
    let ind = slot iblk (base + di_indirect) ~alloc ~map:true in
    if ind = 0 then 0 else slot ind (4 * (fblock - ndirect)) ~alloc ~map:false
  end
  else begin
    let idx = fblock - ndirect - ptrs_per_block in
    let dind = slot iblk (base + di_dindirect) ~alloc ~map:true in
    let ind = if dind = 0 then 0 else slot dind (4 * (idx / ptrs_per_block)) ~alloc ~map:true in
    if ind = 0 then 0 else slot ind (4 * (idx mod ptrs_per_block)) ~alloc ~map:false
  end

(* All device blocks a file currently uses (data + mapping metadata). *)
let file_blocks ino =
  let out = ref [ di_metadata_block ino; sb_block; block_bitmap; inode_bitmap ] in
  let size = di_read ino di_size in
  let nblocks = (size + block_size - 1) / block_size in
  for fb = 0 to nblocks - 1 do
    let b = bmap ino fb ~alloc:false in
    if b <> 0 then out := b :: !out
  done;
  if di_read ino di_indirect <> 0 then out := di_read ino di_indirect :: !out;
  let dind = di_read ino di_dindirect in
  if dind <> 0 then begin
    out := dind :: !out;
    for hi = 0 to ptrs_per_block - 1 do
      let ind = read_u32_at dind (4 * hi) in
      if ind <> 0 then out := ind :: !out
    done
  end;
  !out

(* --- Sequential-stream detection and readahead ---

   Per-inode window state machine: [next_fb] is the file block a
   strictly sequential reader would demand next, [window] the current
   readahead size in blocks. A demand read starting at [next_fb] is
   sequential — the window doubles (1 -> 32) and that many blocks past
   the demanded range are prefetched as one batch. Any other access
   pattern collapses the window back to 1 (random reads never pay for
   speculation). The table is forgotten on mkfs/mount.

   [ra_end] is the first file block past everything this stream's
   readahead has mapped and submitted, and [ra_epoch] the block cache's
   epoch when it was set. While the epoch stands still, every block in
   [next_fb, ra_end) is still cached, so [Block.prefetch_blocks] would
   filter it out: a sequential step maps and submits only what lies past
   [ra_end], and the prefetched set is the one a full re-map would give.
   Linux's on-demand readahead likewise reads only the pages that are
   not in the page cache. *)

let ra_max_window = 32

type ra_state = {
  mutable next_fb : int;
  mutable window : int;
  mutable ra_end : int;
  mutable ra_epoch : int;
}

let ra_table : (int, ra_state) Hashtbl.t = Hashtbl.create 64

let ra_reset () = Hashtbl.reset ra_table

(* Map file blocks [first, stop), in ascending order, into [blocks]
   from index [n]; holes are skipped. Returns the new count. *)
let map_range ino ~first ~stop blocks n =
  let n = ref n in
  for fb = first to stop - 1 do
    let b = bmap ino fb ~alloc:false in
    if b <> 0 then begin
      blocks.(!n) <- b;
      incr n
    end
  done;
  !n

let readahead ino ~first_fb ~nblocks =
  if (Sim.Profile.get ()).Sim.Profile.blk_readahead then begin
    let st =
      match Hashtbl.find_opt ra_table ino with
      | Some st -> st
      | None ->
        let st = { next_fb = 0; window = 1; ra_end = 0; ra_epoch = 0 } in
        Hashtbl.add ra_table ino st;
        st
    in
    let sequential = first_fb = st.next_fb in
    if sequential then st.window <- min ra_max_window (max 2 (st.window * 2))
    else begin
      st.window <- 1;
      st.ra_end <- 0
    end;
    let start = first_fb + nblocks in
    st.next_fb <- start;
    if sequential && st.window > 1 then begin
      let size = di_read ino di_size in
      let file_nb = (size + block_size - 1) / block_size in
      let stop = min file_nb (start + st.window) in
      (* Map the window from the first block not known to be cached.
         Reading an inode or an indirect block can sleep, and another
         reader of the stream or a cache drop can run meanwhile, so that
         block is asked for again after each piece is mapped, and any
         piece it uncovers below is mapped too. The window's blocks go
         to an array of their own, as the mapping can sleep. *)
      let blocks = Array.make (max 0 (stop - start)) 0 and n = ref 0 and lo = ref stop in
      let continue = ref true in
      while !continue do
        let from =
          if st.next_fb = start && st.ra_epoch = Block.cache_epoch () then max start st.ra_end
          else start
        in
        if from >= !lo then continue := false
        else begin
          n := map_range ino ~first:from ~stop:!lo blocks !n;
          lo := from
        end
      done;
      let epoch = Block.cache_epoch () in
      Block.prefetch_blocks blocks ~n:!n;
      if st.next_fb = start then begin
        st.ra_end <- stop;
        st.ra_epoch <- epoch
      end
    end
  end

(* --- File data I/O over the buffer cache --- *)

let data_read ino ~pos ~buf ~boff ~len =
  let size = di_read ino di_size in
  if pos >= size then 0
  else begin
    let len = min len (size - pos) in
    let first_fb = pos / block_size in
    let last_fb = (pos + len - 1) / block_size in
    (* Plug: a demand read spanning several blocks fetches its misses as
       one merged chain instead of one synchronous bio per block... *)
    if last_fb > first_fb then begin
      let blocks = Array.make (last_fb + 1 - first_fb) 0 in
      let n = map_range ino ~first:first_fb ~stop:(last_fb + 1) blocks 0 in
      Block.prefetch_blocks ~mark:false blocks ~n
    end;
    (* ...and a sequential stream speculates past it. *)
    readahead ino ~first_fb ~nblocks:(last_fb - first_fb + 1);
    let moved = ref 0 in
    while !moved < len do
      let p = pos + !moved in
      let fb = p / block_size and off = p mod block_size in
      let chunk = min (len - !moved) (block_size - off) in
      let b = bmap ino fb ~alloc:false in
      if b <> 0 then Block.read_from_block b ~off ~buf ~pos:(boff + !moved) ~len:chunk
      else begin
        Sim.Cost.charge_zero_fill chunk;
        Bytes.fill buf (boff + !moved) chunk '\000'
      end;
      moved := !moved + chunk
    done;
    len
  end

(* [meta] marks content that is metadata living in file data blocks
   (directory entries, symlink targets) — journaled. Ordinary file data
   is not: ordered mode writes it home before the commit. *)
let data_write ?(meta = false) ino ~pos ~buf ~boff ~len =
  let moved = ref 0 in
  while !moved < len do
    let p = pos + !moved in
    let fb = p / block_size and off = p mod block_size in
    let chunk = min (len - !moved) (block_size - off) in
    let b = bmap ino fb ~alloc:true in
    if meta then Jbd.touch b;
    Block.write_to_block b ~off ~buf ~pos:(boff + !moved) ~len:chunk;
    moved := !moved + chunk
  done;
  let size = di_read ino di_size in
  if pos + len > size then di_write ino di_size (pos + len);
  len

(* Free the whole blocks of file [ino] past [size] (it held [old_size]
   bytes), clearing every mapping slot — direct, indirect, and
   double-indirect — so no dangling pointer survives into a reused
   block. *)
let free_blocks_beyond ino ~size ~old_size =
  let keep = (size + block_size - 1) / block_size in
  let total = (old_size + block_size - 1) / block_size in
  for fb = keep to total - 1 do
    let b = bmap ino fb ~alloc:false in
    if b >= first_data_block then begin
      free_block b;
      if fb < ndirect then di_write ino (di_direct + (4 * fb)) 0
      else if fb < ndirect + ptrs_per_block then begin
        let ind = di_read ino di_indirect in
        if ind <> 0 then write_u32_at ind (4 * (fb - ndirect)) 0
      end
      else begin
        let idx = fb - ndirect - ptrs_per_block in
        let hi = idx / ptrs_per_block and lo = idx mod ptrs_per_block in
        let dind = di_read ino di_dindirect in
        if dind <> 0 then begin
          let ind = read_u32_at dind (4 * hi) in
          if ind <> 0 then write_u32_at ind (4 * lo) 0
        end
      end
    end
  done;
  (* Indirect chain blocks whose whole range is gone. *)
  let ind = di_read ino di_indirect in
  if ind <> 0 && keep <= ndirect then begin
    free_block ind;
    di_write ino di_indirect 0
  end;
  let dind = di_read ino di_dindirect in
  if dind <> 0 then begin
    for hi = 0 to ptrs_per_block - 1 do
      let ind = read_u32_at dind (4 * hi) in
      if ind <> 0 && keep <= ndirect + ptrs_per_block + (hi * ptrs_per_block)
      then begin
        free_block ind;
        write_u32_at dind (4 * hi) 0
      end
    done;
    if keep <= ndirect + ptrs_per_block then begin
      free_block dind;
      di_write ino di_dindirect 0
    end
  end

(* --- Directories --- *)

(* Entry: [ino u32][len u16][name]. A whole directory fits its file data. *)
let dir_entries ino =
  let size = di_read ino di_size in
  let buf = Bytes.create size in
  ignore (data_read ino ~pos:0 ~buf ~boff:0 ~len:size);
  let rec parse pos acc =
    if pos + 6 > size then List.rev acc
    else begin
      let e_ino = Int32.to_int (Bytes.get_int32_le buf pos) land 0xffffffff in
      let nlen = Bytes.get_uint16_le buf (pos + 4) in
      let name = Bytes.sub_string buf (pos + 6) nlen in
      parse (pos + 6 + nlen) ((name, e_ino) :: acc)
    end
  in
  parse 0 []

(* Bytes a list of entries takes on disk. *)
let dir_size entries = List.fold_left (fun n (name, _) -> n + 6 + String.length name) 0 entries

(* Replace the entries of directory [ino], which held [was]. *)
let dir_write_entries ino ~was entries =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, e_ino) ->
      let quad = Bytes.create 6 in
      Bytes.set_int32_le quad 0 (Int32.of_int e_ino);
      Bytes.set_uint16_le quad 4 (String.length name);
      Buffer.add_bytes b quad;
      Buffer.add_string b name)
    entries;
  let data = Buffer.to_bytes b in
  let old_size = dir_size was and size = Bytes.length data in
  di_write ino di_size 0;
  ignore (data_write ~meta:true ino ~pos:0 ~buf:data ~boff:0 ~len:size);
  di_write ino di_size size;
  (* A directory that shrinks past a block boundary gives the blocks
     back, as a truncate would. *)
  if (size + block_size - 1) / block_size < (old_size + block_size - 1) / block_size then
    free_blocks_beyond ino ~size ~old_size

(* --- VFS glue --- *)

type Vfs.priv += E2 of int (* disk inode number *)

let dino_of i =
  match i.Vfs.priv with
  | E2 n -> n
  | _ -> Ostd.Panic.panic "ext2: foreign inode"

let icache : (int, Vfs.inode) Hashtbl.t = Hashtbl.create 256

let rec vnode_of ino =
  match Hashtbl.find_opt icache ino with
  | Some i -> i
  | None ->
    let mode_bits = di_read ino di_mode in
    let i =
      Vfs.make_inode ~fsname:"ext2" ~kind:(kind_of_bits mode_bits)
        ~mode:(mode_bits land 0xFFF) ~ops ()
    in
    i.Vfs.priv <- E2 ino;
    i.Vfs.size <- di_read ino di_size;
    i.Vfs.nlink <- di_read ino di_nlink;
    Hashtbl.replace icache ino i;
    i

and new_disk_inode kind ~mode =
  let ino = alloc_ino () in
  di_write ino di_mode (kind_bits kind lor (mode land 0xFFF));
  di_write ino di_size 0;
  di_write ino di_nlink 1;
  for k = 0 to ndirect - 1 do
    di_write ino (di_direct + (4 * k)) 0
  done;
  di_write ino di_indirect 0;
  di_write ino di_dindirect 0;
  ino

(* Free inode [ino] and every block it holds. *)
and reclaim ino =
  List.iter (fun b -> if b >= first_data_block then free_block b) (file_blocks ino);
  free_ino ino;
  Hashtbl.remove icache ino

(* Drop one name of [i]: its link count, on disk and in the vnode. *)
and drop_link i =
  let ino = dino_of i in
  let nlink = di_read ino di_nlink - 1 in
  di_write ino di_nlink nlink;
  i.Vfs.nlink <- nlink

and ops =
  {
    (* kprof: the hot vnode operations fold their cycles under "ext2". *)
    lookup =
      (fun dir name ->
        Sim.Prof.scope "ext2" (fun () ->
            let dino = dino_of dir in
            match List.assoc_opt name (dir_entries dino) with
            | Some e_ino -> Some (vnode_of e_ino)
            | None -> None));
    create =
      Some
        (fun dir name kind ~mode ->
          Sim.Prof.scope "ext2" (fun () ->
              Jbd.with_handle (fun () ->
                  let dino = dino_of dir in
                  let entries = dir_entries dino in
                  let ino = new_disk_inode kind ~mode in
                  dir_write_entries dino ~was:entries (entries @ [ (name, ino) ]);
                  dir.Vfs.size <- di_read dino di_size;
                  Vfs.touch_mtime dir;
                  Ok (vnode_of ino))));
    unlink =
      Some
        (fun dir name victim ->
          Jbd.with_handle (fun () ->
              let dino = dino_of dir in
              let entries = dir_entries dino in
              dir_write_entries dino ~was:entries (List.remove_assoc name entries);
              dir.Vfs.size <- di_read dino di_size;
              drop_link victim;
              Vfs.touch_mtime dir;
              Ok ()));
    rename =
      Some
        (fun src_dir src_name dst_dir dst_name replaced ->
          Jbd.with_handle (fun () ->
              let sdino = dino_of src_dir and ddino = dino_of dst_dir in
              let sentries = dir_entries sdino in
              let e_ino = List.assoc src_name sentries in
              dir_write_entries sdino ~was:sentries (List.remove_assoc src_name sentries);
              let dentries = dir_entries ddino in
              dir_write_entries ddino ~was:dentries
                ((dst_name, e_ino) :: List.remove_assoc dst_name dentries);
              Option.iter drop_link replaced;
              Ok ()));
    link =
      Some
        (fun dir name target ->
          Jbd.with_handle (fun () ->
              let dino = dino_of dir in
              let entries = dir_entries dino in
              let t_ino = dino_of target in
              dir_write_entries dino ~was:entries (entries @ [ (name, t_ino) ]);
              let nl = di_read t_ino di_nlink + 1 in
              di_write t_ino di_nlink nl;
              target.Vfs.nlink <- nl;
              Ok ()));
    evict = (fun i -> Jbd.with_handle (fun () -> reclaim (dino_of i)));
    readdir =
      (fun dir ->
        List.map (fun (name, e_ino) -> (name, vnode_of e_ino)) (dir_entries (dino_of dir)));
    read =
      (fun f ~pos ~buf ~boff ~len ->
        Sim.Prof.scope "ext2" (fun () -> Ok (data_read (dino_of f) ~pos ~buf ~boff ~len)));
    write =
      (fun f ~pos ~buf ~boff ~len ->
        Sim.Prof.scope "ext2" (fun () ->
            Jbd.with_handle (fun () ->
                let n = data_write (dino_of f) ~pos ~buf ~boff ~len in
                f.Vfs.size <- di_read (dino_of f) di_size;
                Vfs.touch_mtime f;
                Ok n)));
    truncate =
      (fun f n ->
        Jbd.with_handle (fun () ->
            let ino = dino_of f in
            let old_size = di_read ino di_size in
            if n < old_size then begin
              free_blocks_beyond ino ~size:n ~old_size
            end
            else if n > old_size then begin
              let zero = Bytes.make (min block_size (n - old_size)) '\000' in
              let pos = ref old_size in
              while !pos < n do
                let chunk = min (Bytes.length zero) (n - !pos) in
                ignore (data_write ino ~pos:!pos ~buf:zero ~boff:0 ~len:chunk);
                pos := !pos + chunk
              done
            end;
            di_write ino di_size n;
            f.Vfs.size <- n;
            Vfs.touch_mtime f;
            Ok ()));
    fsync =
      (fun f ->
        let ino = dino_of f in
        if Jbd.is_enabled () then
          (* Ordered mode: the commit itself writes all dirty data back
             before the metadata transaction goes behind its barriers. *)
          Jbd.commit ()
        else Block.sync_blocks (Array.of_list (file_blocks ino)));
    symlink_target =
      (fun i ->
        if i.Vfs.kind <> Vfs.Lnk then None
        else begin
          let ino = dino_of i in
          let size = di_read ino di_size in
          let buf = Bytes.create size in
          ignore (data_read ino ~pos:0 ~buf ~boff:0 ~len:size);
          Some (Bytes.to_string buf)
        end);
    set_symlink =
      (fun i target ->
        Jbd.with_handle (fun () ->
            let ino = dino_of i in
            let b = Bytes.of_string target in
            ignore (data_write ~meta:true ino ~pos:0 ~buf:b ~boff:0 ~len:(Bytes.length b));
            di_write ino di_size (Bytes.length b);
            i.Vfs.size <- Bytes.length b;
            Ok ()));
  }

let journaling_wanted () =
  let p = Sim.Profile.get () in
  p.Sim.Profile.ext2_journal

let mkfs () =
  Hashtbl.reset icache;
  ra_reset ();
  alloc_hint := first_data_block;
  (* mkfs writes everything directly; the journal covers mounted
     operation, not format time. *)
  Jbd.disable_journal ();
  (* Superblock. *)
  Block.zero_block sb_block;
  write_u32_at sb_block 0 magic;
  write_u32_at sb_block 4 (device_blocks ());
  write_u32_at sb_block 8 ninodes;
  write_u32_at sb_block 12 (device_blocks () - first_data_block);
  write_u32_at sb_block 16 (ninodes - root_ino - 1);
  (* Bitmaps: mark metadata (journal area included) + reserved inodes
     used. *)
  Block.zero_block block_bitmap;
  Block.zero_block inode_bitmap;
  for b = 0 to first_data_block - 1 do
    bit_set block_bitmap b true
  done;
  for i = 0 to root_ino do
    bit_set inode_bitmap i true
  done;
  for b = 0 to inode_table_blocks - 1 do
    Block.zero_block (inode_table_start + b)
  done;
  (* Root directory. *)
  di_write root_ino di_mode (kind_bits Vfs.Dir lor 0o755);
  di_write root_ino di_size 0;
  di_write root_ino di_nlink 2;
  (if journaling_wanted () then begin
     Jbd.configure ~start:journal_start ~blocks:journal_blocks;
     Jbd.format ();
     Jbd.disable_journal ()
   end);
  match Block.sync () with
  | Ok () -> ()
  | Error e -> Ostd.Panic.panicf "ext2: mkfs could not reach the device (errno %d)" e

let mount () =
  Hashtbl.reset icache;
  ra_reset ();
  alloc_hint := first_data_block;
  if sb_magic () <> magic then Ostd.Panic.panic "ext2: bad magic (not formatted?)";
  if journaling_wanted () then begin
    Jbd.configure ~start:journal_start ~blocks:journal_blocks;
    (* Recover: complete transactions are applied, torn ones discarded. *)
    Jbd.replay ()
  end
  else Jbd.disable_journal ();
  (* An allocated inode without links is what a crash leaves when it
     strikes a file still open after its last name went: free it, as
     ext4's orphan processing does. The scan stops at the last inode the
     superblock counts as allocated. *)
  let left = ref (ninodes - root_ino - 1 - sb_free_inodes ()) and ino = ref (root_ino + 1) in
  while !left > 0 && !ino < ninodes do
    if bit_get inode_bitmap !ino then begin
      decr left;
      if di_read !ino di_nlink = 0 then Jbd.with_handle (fun () -> reclaim !ino)
    end;
    incr ino
  done;
  vnode_of root_ino

(* Filesystem-wide sync, the sync(2) back end: commit the running
   journal transaction, checkpoint it, then write back and flush
   everything else. Without a journal it degenerates to [Block.sync]. *)
let sync_fs () =
  if Jbd.is_enabled () then
    match Jbd.commit () with
    | Error _ as e -> e
    | Ok () -> (
      try
        Jbd.checkpoint ();
        Block.sync ()
      with Ostd.Panic.Service_failure { errno; _ } -> Error errno)
  else Block.sync ()
