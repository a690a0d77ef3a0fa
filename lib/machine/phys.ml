let page_size = 4096

(* Frames are allocated on first touch; a fresh frame reads as zeroes,
   like RAM after the bootloader's clear. *)
let frames : Bytes.t option array ref = ref [||]

let init ~frames:n = frames := Array.make n None

let nframes () = Array.length !frames

let size () = nframes () * page_size

let valid ~paddr ~len = paddr >= 0 && len >= 0 && paddr + len <= size ()

let frame_bytes i =
  match !frames.(i) with
  | Some b -> b
  | None ->
    let b = Bytes.make page_size '\000' in
    !frames.(i) <- Some b;
    b

let check ~paddr ~len =
  if not (valid ~paddr ~len) then
    invalid_arg (Printf.sprintf "Phys: access [%#x, %#x) outside memory" paddr (paddr + len))

(* Each walk below moves one frame-bounded chunk per iteration, with no
   closure and no staging buffer: [Bytes.blit] between the caller's
   buffer and the frame's backing bytes is the only copy. *)

let read ~paddr buf ~off ~len =
  check ~paddr ~len;
  let p = ref paddr and o = ref off and rem = ref len in
  while !rem > 0 do
    let foff = !p mod page_size in
    let chunk = Int.min !rem (page_size - foff) in
    Bytes.blit (frame_bytes (!p / page_size)) foff buf !o chunk;
    p := !p + chunk;
    o := !o + chunk;
    rem := !rem - chunk
  done

let write ~paddr buf ~off ~len =
  check ~paddr ~len;
  let p = ref paddr and o = ref off and rem = ref len in
  while !rem > 0 do
    let foff = !p mod page_size in
    let chunk = Int.min !rem (page_size - foff) in
    Bytes.blit buf !o (frame_bytes (!p / page_size)) foff chunk;
    p := !p + chunk;
    o := !o + chunk;
    rem := !rem - chunk
  done

let fill ~paddr ~len c =
  check ~paddr ~len;
  let p = ref paddr and rem = ref len in
  while !rem > 0 do
    let foff = !p mod page_size in
    let chunk = Int.min !rem (page_size - foff) in
    Bytes.fill (frame_bytes (!p / page_size)) foff chunk c;
    p := !p + chunk;
    rem := !rem - chunk
  done

(* Frame to frame, memmove semantics. Each chunk stays inside one source
   and one destination frame, and [Bytes.blit] is itself overlap-safe,
   so only the chunk order matters: ascending when the destination lies
   below the source (a chunk's writes land behind every byte still to
   be read), descending otherwise. *)
let copy ~src ~dst ~len =
  check ~paddr:src ~len;
  check ~paddr:dst ~len;
  if dst <= src then begin
    let done_ = ref 0 in
    while !done_ < len do
      let s = src + !done_ and d = dst + !done_ in
      let soff = s mod page_size and doff = d mod page_size in
      let chunk = Int.min (len - !done_) (page_size - Int.max soff doff) in
      Bytes.blit (frame_bytes (s / page_size)) soff (frame_bytes (d / page_size)) doff chunk;
      done_ := !done_ + chunk
    done
  end
  else begin
    let left = ref len in
    while !left > 0 do
      (* The chunk ends at [left]; it starts no earlier than the frame
         boundary below the last byte of either range. *)
      let s_end = src + !left and d_end = dst + !left in
      let chunk =
        Int.min !left
          (Int.min (((s_end - 1) mod page_size) + 1) (((d_end - 1) mod page_size) + 1))
      in
      let s = s_end - chunk and d = d_end - chunk in
      Bytes.blit (frame_bytes (s / page_size)) (s mod page_size) (frame_bytes (d / page_size))
        (d mod page_size) chunk;
      left := !left - chunk
    done
  end

let read_u8 paddr =
  check ~paddr ~len:1;
  Char.code (Bytes.get (frame_bytes (paddr / page_size)) (paddr mod page_size))

let write_u8 paddr v =
  check ~paddr ~len:1;
  Bytes.set (frame_bytes (paddr / page_size)) (paddr mod page_size) (Char.chr (v land 0xff))

let scratch = Bytes.create 8

let read_u32 paddr =
  read ~paddr scratch ~off:0 ~len:4;
  Int32.to_int (Bytes.get_int32_le scratch 0) land 0xffffffff

let write_u32 paddr v =
  Bytes.set_int32_le scratch 0 (Int32.of_int v);
  write ~paddr scratch ~off:0 ~len:4

let read_u64 paddr =
  read ~paddr scratch ~off:0 ~len:8;
  Bytes.get_int64_le scratch 0

let write_u64 paddr v =
  Bytes.set_int64_le scratch 0 v;
  write ~paddr scratch ~off:0 ~len:8
