(* On-wire packet format shared by the guest stack and the device
   model. The device needs it for the offloads it implements in
   "hardware": TSO (splitting a super-segment descriptor into MSS-sized
   wire frames at ring time) and checksum offload (sealing each frame it
   sends, verifying each it delivers). Keeping the byte layout here —
   below the kernel — is what makes those honest: the device manipulates
   raw frames, never kernel objects. *)

let header_size = 36

let cksum_off = 32

let mss = 1448

(* Flag bits (offset 9). Only the ones the splitter must strip from
   non-final sub-frames live here; the full set is in Aster.Packet. *)
let fin = 4

let psh = 16

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

(* FNV-1a over the frame's little-endian 32-bit words (a partial last
   word byte by byte), the checksum word skipped, in four lanes so the
   multiplies overlap instead of forming one serial chain. Each whole
   16-byte block is two 64-bit loads whose four words feed lanes 0-3. A
   lane is masked to 32 bits only at the end: the low 32 bits of an xor
   or a product depend only on the low 32 bits of its inputs. The lane
   values then feed one state in lane order, and the words and bytes
   after the last whole block continue serially from it. [cksum_off] is
   a multiple of 16: lane 0's word of its block, or a serial word.
   Every step is a bijection of the running state and of its input
   word, so frames of equal length that differ in one word always hash
   apart: a single flipped byte — what a noisy link, or the fault
   plane's [net.corrupt], produces — is always caught. *)
let basis = 0x811c9dc5

let prime = 0x01000193

let lo32 = 0xffffffff

let step h w = (h lxor w) * prime land lo32

let cksum b =
  let len = Bytes.length b in
  let blocks = len land lnot 15 in
  let l0 = ref basis and l1 = ref basis and l2 = ref basis and l3 = ref basis in
  let i = ref 0 in
  while !i < blocks do
    let x = Bytes.get_int64_le b !i and y = Bytes.get_int64_le b (!i + 8) in
    if !i <> cksum_off then l0 := (!l0 lxor (Int64.to_int x land lo32)) * prime;
    l1 := (!l1 lxor Int64.to_int (Int64.shift_right_logical x 32)) * prime;
    l2 := (!l2 lxor (Int64.to_int y land lo32)) * prime;
    l3 := (!l3 lxor Int64.to_int (Int64.shift_right_logical y 32)) * prime;
    i := !i + 16
  done;
  let fold h lane = step h (lane land lo32) in
  let h = ref (fold (fold (fold (fold basis !l0) !l1) !l2) !l3) in
  while !i + 4 <= len do
    if !i <> cksum_off then h := step !h (u32 b !i);
    i := !i + 4
  done;
  for j = !i to len - 1 do
    h := step !h (Char.code (Bytes.get b j))
  done;
  !h

(* The NIC's TX checksum, stamped once per wire frame. A frame too short
   for a header has no checksum word. *)
let seal b =
  if Bytes.length b >= header_size then Bytes.set_int32_le b cksum_off (Int32.of_int (cksum b))

(* Verification in place, mirroring what the receiving stack's decode
   concludes. The length word must match the frame exactly, so a flipped
   length byte is caught too. *)
let cksum_ok raw =
  Bytes.length raw >= header_size
  && u32 raw 28 = Bytes.length raw - header_size
  && u32 raw cksum_off = cksum raw

(* TSO: cut one encoded super-segment of [len] bytes into sealed wire
   frames of at most [gso_size] payload bytes, each read straight from
   wherever the super-segment lives through [read src dst dst_off n]
   and handed to [emit] before the next is cut. Each sub-frame gets the
   advanced sequence number and its own length; FIN and PSH travel only
   on the final sub-frame, the way a real NIC segments. *)
let tso_frames ~gso_size ~len =
  let plen = len - header_size in
  if gso_size <= 0 || plen <= gso_size then 1 else (plen + gso_size - 1) / gso_size

let tso_split ~gso_size ~len read emit =
  let plen = len - header_size and n = tso_frames ~gso_size ~len in
  if n = 1 then begin
    let b = Bytes.create len in
    read 0 b 0 len;
    seal b;
    emit b
  end
  else
    for k = 0 to n - 1 do
      let off = k * gso_size in
      let c = min gso_size (plen - off) in
      let b = Bytes.create (header_size + c) in
      read 0 b 0 header_size;
      read (header_size + off) b header_size c;
      Bytes.set_int32_le b 16 (Int32.of_int (u32 b 16 + off));
      Bytes.set_int32_le b 28 (Int32.of_int c);
      if off + c < plen then Bytes.set_uint8 b 9 (Bytes.get_uint8 b 9 land lnot (fin lor psh));
      seal b;
      emit b
    done
