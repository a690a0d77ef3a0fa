(* fsck-style invariant checker for the ext2 image.

   Read-only: walks the on-disk structures through the buffer cache and
   reports every violated invariant as a human-readable line. An empty
   result means the image is consistent. Run after crash-recovery to
   prove the journal replay reconstructed a sane filesystem — and with
   journaling off, to detect the corruption a power cut leaves behind.

   Invariants checked:
   - superblock magic;
   - reserved blocks (boot metadata + journal) and reserved inodes are
     marked used in their bitmaps;
   - every block an inode claims (data, indirect, double-indirect) is
     in the data area, marked used, and claimed exactly once;
   - no block is marked used without an owner (leak);
   - the superblock free counts match the bitmaps;
   - directory entries parse exactly (no trailing garbage) and point at
     allocated inodes;
   - every allocated inode is reachable from the root, and its link
     count equals the number of directory entries naming it
     (root counts its conventional self-reference: nlink = 2). *)

let block_size = Block.block_size

let inode_size = 128

let inodes_per_block = block_size / inode_size

(* Disk inode field offsets (mirrors Ext2's private layout). *)
let di_mode = 0
let di_size = 4
let di_nlink = 8
let di_direct = 12
let di_indirect = 60
let di_dindirect = 64

let ndirect = 12

let ptrs_per_block = block_size / 4

(* The word [u32_at] reads through: a check runs to completion before
   the next one starts. *)
let word = Bytes.create 4

let u32_at block off =
  Block.read_from_block block ~off ~buf:word ~pos:0 ~len:4;
  Int32.to_int (Bytes.get_int32_le word 0) land 0xffffffff

(* Bitmaps are read once per check, and tested in memory. *)
let read_bitmap block =
  let b = Bytes.create block_size in
  Block.read_from_block block ~off:0 ~buf:b ~pos:0 ~len:block_size;
  b

let bit_get bitmap i = Char.code (Bytes.get bitmap (i / 8)) land (1 lsl (i mod 8)) <> 0

let di ino field =
  let blk = Ext2.inode_table_start + (ino / inodes_per_block) in
  u32_at blk ((ino mod inodes_per_block * inode_size) + field)

let is_dir ino = di ino di_mode land 0xF000 = 0x4000

let device_blocks () = Block.capacity_sectors () / Block.sectors_per_block

let check () =
  let bad = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  if u32_at Ext2.sb_block 0 <> 0xEF53_2025 then begin
    violation "superblock magic is wrong";
    List.rev !bad
  end
  else begin
    let total = min (device_blocks ()) (block_size * 8) in
    let block_bitmap = read_bitmap Ext2.block_bitmap in
    let inode_bitmap = read_bitmap Ext2.inode_bitmap in
    (* Reserved area marked used. *)
    for b = 0 to Ext2.first_data_block - 1 do
      if not (bit_get block_bitmap b) then
        violation "reserved block %d is marked free" b
    done;
    for i = 0 to Ext2.root_ino do
      if not (bit_get inode_bitmap i) then
        violation "reserved inode %d is marked free" i
    done;
    (* Block claims: each data-area block used by at most one owner. *)
    let claim = Hashtbl.create 256 in
    let claim_block ~owner b =
      if b < Ext2.first_data_block || b >= total then
        violation "inode %d claims out-of-range block %d" owner b
      else if not (bit_get block_bitmap b) then
        violation "inode %d claims free block %d" owner b
      else
        match Hashtbl.find_opt claim b with
        | Some prev -> violation "block %d claimed by inodes %d and %d" b prev owner
        | None -> Hashtbl.add claim b owner
    in
    let inode_blocks ino =
      let size = di ino di_size in
      let nblocks = (size + block_size - 1) / block_size in
      for fb = 0 to min nblocks Ext2.max_file_blocks - 1 do
        let slot =
          if fb < ndirect then di ino (di_direct + (4 * fb))
          else if fb < ndirect + ptrs_per_block then begin
            let ind = di ino di_indirect in
            if ind = 0 then 0 else u32_at ind (4 * (fb - ndirect))
          end
          else begin
            let idx = fb - ndirect - ptrs_per_block in
            let hi = idx / ptrs_per_block and lo = idx mod ptrs_per_block in
            let dind = di ino di_dindirect in
            if dind = 0 then 0
            else
              let ind = u32_at dind (4 * hi) in
              if ind = 0 then 0 else u32_at ind (4 * lo)
          end
        in
        if slot <> 0 then claim_block ~owner:ino slot
      done;
      let ind = di ino di_indirect in
      if ind <> 0 then claim_block ~owner:ino ind;
      let dind = di ino di_dindirect in
      if dind <> 0 then begin
        claim_block ~owner:ino dind;
        for hi = 0 to ptrs_per_block - 1 do
          let ind = u32_at dind (4 * hi) in
          if ind <> 0 then claim_block ~owner:ino ind
        done
      end
    in
    let allocated = ref [] in
    for ino = Ext2.root_ino to Ext2.ninodes - 1 do
      if bit_get inode_bitmap ino then begin
        allocated := ino :: !allocated;
        if di ino di_mode = 0 then violation "allocated inode %d has no mode" ino;
        if di ino di_nlink = 0 then violation "allocated inode %d has zero links" ino;
        inode_blocks ino
      end
    done;
    (* Leaks: used blocks nobody claims. *)
    for b = Ext2.first_data_block to total - 1 do
      if bit_get block_bitmap b && not (Hashtbl.mem claim b) then
        violation "block %d is marked used but unclaimed" b
    done;
    (* Free counts. *)
    let free_blocks = ref 0 in
    for b = 0 to total - 1 do
      if not (bit_get block_bitmap b) then incr free_blocks
    done;
    let sb_free = u32_at Ext2.sb_block 12 in
    if sb_free <> !free_blocks then
      violation "superblock says %d free blocks, bitmap says %d" sb_free !free_blocks;
    let free_inodes = ref 0 in
    for i = 0 to Ext2.ninodes - 1 do
      if not (bit_get inode_bitmap i) then incr free_inodes
    done;
    let sb_ifree = u32_at Ext2.sb_block 16 in
    if sb_ifree <> !free_inodes then
      violation "superblock says %d free inodes, bitmap says %d" sb_ifree !free_inodes;
    (* Directory tree: strict dirent parse, reachability, name counts. *)
    let names : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
    let count_name ino =
      match Hashtbl.find_opt names ino with
      | Some r -> incr r
      | None -> Hashtbl.add names ino (ref 1)
    in
    let read_file ino =
      let size = di ino di_size in
      let buf = Bytes.create size in
      let pos = ref 0 in
      while !pos < size do
        let fb = !pos / block_size and off = !pos mod block_size in
        let chunk = min (size - !pos) (block_size - off) in
        let slot =
          if fb < ndirect then di ino (di_direct + (4 * fb))
          else if fb < ndirect + ptrs_per_block then begin
            let ind = di ino di_indirect in
            if ind = 0 then 0 else u32_at ind (4 * (fb - ndirect))
          end
          else 0
        in
        (if slot = 0 then Bytes.fill buf !pos chunk '\000'
         else Block.read_from_block slot ~off ~buf ~pos:!pos ~len:chunk);
        pos := !pos + chunk
      done;
      buf
    in
    let visited = Hashtbl.create 64 in
    let rec walk_dir ino =
      if not (Hashtbl.mem visited ino) then begin
        Hashtbl.add visited ino ();
        let buf = read_file ino in
        let size = Bytes.length buf in
        let pos = ref 0 in
        let stop = ref false in
        while (not !stop) && !pos < size do
          if !pos + 6 > size then begin
            violation "inode %d: truncated dirent header at %d" ino !pos;
            stop := true
          end
          else begin
            let e_ino = Int32.to_int (Bytes.get_int32_le buf !pos) land 0xffffffff in
            let nlen = Bytes.get_uint16_le buf (!pos + 4) in
            if !pos + 6 + nlen > size then begin
              violation "inode %d: dirent name overruns directory at %d" ino !pos;
              stop := true
            end
            else if e_ino < Ext2.root_ino || e_ino >= Ext2.ninodes then begin
              violation "inode %d: dirent points at invalid inode %d" ino e_ino;
              pos := !pos + 6 + nlen
            end
            else begin
              if not (bit_get inode_bitmap e_ino) then
                violation "inode %d: dirent points at free inode %d" ino e_ino
              else begin
                count_name e_ino;
                if is_dir e_ino then walk_dir e_ino
              end;
              pos := !pos + 6 + nlen
            end
          end
        done
      end
    in
    walk_dir Ext2.root_ino;
    (* Link counts and reachability. *)
    List.iter
      (fun ino ->
        let nlink = di ino di_nlink in
        let named = match Hashtbl.find_opt names ino with Some r -> !r | None -> 0 in
        let expected = if ino = Ext2.root_ino then named + 2 else named in
        if ino <> Ext2.root_ino && named = 0 then
          violation "inode %d is allocated but unreachable from the root" ino
        else if nlink <> expected then
          violation "inode %d has nlink %d but %d directory entries" ino nlink named)
      (List.rev !allocated);
    List.rev !bad
  end
