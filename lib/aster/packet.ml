type proto = Tcp | Udp

type slice = Buf of bytes * int * int | View of Page_cache.view * int * int

type t = {
  src_ip : int;
  dst_ip : int;
  proto : proto;
  src_port : int;
  dst_port : int;
  flags : int;
  seq : int;
  ack : int;
  win : int;
  (* The payload is the view [payload.[off, off + len)]: a decoded
     packet's lies inside the wire frame it came in. Never written. A
     segment with [slices] has none of its own: its payload is theirs,
     in order. *)
  payload : bytes;
  off : int;
  len : int;
  (* kspan ownership: the request span this segment belongs to
     (0 = none), captured when the packet is built so it survives the
     plug queue, burst splits and driver retries. [span_t0] marks entry
     into the TX path (stamped by the netstack). *)
  mutable span : int;
  mutable span_t0 : Sim.Time.t;
  (* The slices a segment borrows from its connection, which owns
     their pins until the ACK: byte ranges of its send queue and ranges
     of sendfile views. Empty for a payload of its own. *)
  slices : slice list;
}

let syn = 1
let ack_flag = 2
let fin = 4
let rst = 8
let psh = 16

(* The byte layout lives in {!Machine.Pktfmt}: the device model needs it
   for TSO splitting and checksum offload, and keeping one definition is
   what guarantees the device and the stack agree. *)
let header_size = Machine.Pktfmt.header_size

let cksum_off = Machine.Pktfmt.cksum_off

let mss = Machine.Pktfmt.mss

let gso_max_size = 64 * 1024

let blit_payload p buf at =
  match p.slices with
  | [] -> Bytes.blit p.payload p.off buf at p.len
  | slices ->
    ignore
      (List.fold_left
         (fun at -> function
           | Buf (b, off, n) ->
             Bytes.blit b off buf at n;
             at + n
           | View (v, pos, n) ->
             Page_cache.view_blit v ~pos ~buf ~boff:at ~len:n;
             at + n)
         at slices)

let flat_payload p =
  match p.slices with
  | [] when p.off = 0 && Bytes.length p.payload = p.len -> p.payload
  | _ ->
    let b = Bytes.create p.len in
    blit_payload p b 0;
    b

let flatten p =
  match p.slices with
  | [] -> p
  | _ -> { p with payload = flat_payload p; off = 0; slices = [] }

(* The segment that carries a view's last byte is the one that maps the
   view's pages for the device. *)
let ends_view p =
  List.exists
    (function
      | View (v, pos, n) -> pos + n = Page_cache.view_length v && Page_cache.pinned v
      | Buf _ -> false)
    p.slices

let rec lend_views = function
  | [] -> ()
  | View (v, _, _) :: rest ->
    Page_cache.lend v;
    lend_views rest
  | Buf _ :: rest -> lend_views rest

let rec give_back_views = function
  | [] -> ()
  | View (v, _, _) :: rest ->
    Page_cache.give_back v;
    give_back_views rest
  | Buf _ :: rest -> give_back_views rest

let borrow p = lend_views p.slices

let give_back p = give_back_views p.slices

(* Bytes 14-15 are padding. The checksum word stays zero: the NIC seals
   each wire frame once, as it leaves (see {!Machine.Pktfmt.seal}). *)
let encode_header p b =
  Bytes.set_int32_le b 0 (Int32.of_int p.src_ip);
  Bytes.set_int32_le b 4 (Int32.of_int p.dst_ip);
  Bytes.set b 8 (match p.proto with Tcp -> '\006' | Udp -> '\017');
  Bytes.set b 9 (Char.chr (p.flags land 0xff));
  Bytes.set_uint16_le b 10 p.src_port;
  Bytes.set_uint16_le b 12 p.dst_port;
  Bytes.set_uint16_le b 14 0;
  Bytes.set_int32_le b 16 (Int32.of_int p.seq);
  Bytes.set_int32_le b 20 (Int32.of_int p.ack);
  Bytes.set_int32_le b 24 (Int32.of_int p.win);
  Bytes.set_int32_le b 28 (Int32.of_int p.len);
  Bytes.set_int32_le b cksum_off 0l

let encode_into p b =
  encode_header p b;
  blit_payload p b header_size

let encode p =
  let b = Bytes.create (header_size + p.len) in
  encode_into p b;
  b

let tp_drop =
  Sim.Trace.point Sim.Trace.Net "drop" [| "len" |] (fun f ->
      Printf.sprintf "reason=checksum len=%d" f.a)

(* [verify:false] is the guest driver's path: the NIC already verified
   the frame and wrote its verdict, so the software pass is skipped.
   The payload stays where it arrived: the packet is a view of the
   frame, which it now owns. *)
let decode ?(verify = true) b =
  if Bytes.length b < header_size then None
  else begin
    let u32 off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff in
    let len = u32 28 in
    if Bytes.length b < header_size + len then None
    else if verify && not (Machine.Pktfmt.cksum_ok b) then begin
      (* Damaged in flight. Dropping it is the graceful path: TCP's
         retransmit timer resends the segment, UDP callers accepted
         lossy delivery when they picked UDP. *)
      Sim.Stats.incr "net.checksum_drop";
      Sim.Trace.emit1 tp_drop (Bytes.length b);
      None
    end
    else
      let proto = match Bytes.get b 8 with '\006' -> Some Tcp | '\017' -> Some Udp | _ -> None in
      match proto with
      | None -> None
      | Some proto ->
        Some
          {
            src_ip = u32 0;
            dst_ip = u32 4;
            proto;
            flags = Char.code (Bytes.get b 9);
            src_port = Bytes.get_uint16_le b 10;
            dst_port = Bytes.get_uint16_le b 12;
            seq = u32 16;
            ack = u32 20;
            win = u32 24;
            payload = b;
            off = header_size;
            len;
            span = 0;
            span_t0 = 0;
            slices = [];
          }
  end

let make ~src_ip ~dst_ip ~proto ~src_port ~dst_port ?(flags = 0) ?(seq = 0) ?(ack = 0)
    ?(win = 0) ?(slices = []) payload =
  let len =
    match slices with
    | [] -> Bytes.length payload
    | _ -> List.fold_left (fun a (Buf (_, _, n) | View (_, _, n)) -> a + n) 0 slices
  in
  {
    src_ip; dst_ip; proto; src_port; dst_port; flags; seq; ack; win; payload; off = 0;
    len; span = Sim.Span.current (); span_t0 = 0; slices;
  }

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    (int_of_string a lsl 24) lor (int_of_string b lsl 16) lor (int_of_string c lsl 8)
    lor int_of_string d
  | _ -> invalid_arg ("Packet.ip_of_string: " ^ s)

let string_of_ip ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)
