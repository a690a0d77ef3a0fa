let af_unix = 1
let af_inet = 2
let sock_stream = 1
let sock_dgram = 2

let stat_size = 48

type stat = { ino : int; size : int; mode : int; nlink : int; kind : int; mtime_ns : int64 }

let kind_code = function
  | Vfs.Reg -> 8
  | Vfs.Dir -> 4
  | Vfs.Lnk -> 10
  | Vfs.Fifo -> 1
  | Vfs.Sock -> 12
  | Vfs.Chr -> 2

let encode_stat s =
  let b = Bytes.make stat_size '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int s.ino);
  Bytes.set_int64_le b 8 (Int64.of_int s.size);
  Bytes.set_int32_le b 16 (Int32.of_int s.mode);
  Bytes.set_int32_le b 20 (Int32.of_int s.nlink);
  Bytes.set b 24 (Char.chr (s.kind land 0xff));
  Bytes.set_int64_le b 32 s.mtime_ns;
  b

let decode_stat b =
  {
    ino = Int64.to_int (Bytes.get_int64_le b 0);
    size = Int64.to_int (Bytes.get_int64_le b 8);
    mode = Int32.to_int (Bytes.get_int32_le b 16);
    nlink = Int32.to_int (Bytes.get_int32_le b 20);
    kind = Char.code (Bytes.get b 24);
    mtime_ns = Bytes.get_int64_le b 32;
  }

let encode_sockaddr_in ~port ~ip =
  let b = Bytes.create 8 in
  Bytes.set_uint16_le b 0 af_inet;
  Bytes.set_uint16_le b 2 port;
  Bytes.set_int32_le b 4 (Int32.of_int ip);
  b

let encode_sockaddr_un path =
  let b = Bytes.make (2 + String.length path + 1) '\000' in
  Bytes.set_uint16_le b 0 af_unix;
  Bytes.blit_string path 0 b 2 (String.length path);
  b

type sockaddr = Addr_in of { port : int; ip : int } | Addr_un of string

let decode_sockaddr b =
  if Bytes.length b < 2 then None
  else
    match Bytes.get_uint16_le b 0 with
    | f when f = af_inet && Bytes.length b >= 8 ->
      Some
        (Addr_in
           {
             port = Bytes.get_uint16_le b 2;
             ip = Int32.to_int (Bytes.get_int32_le b 4) land 0xffffffff;
           })
    | f when f = af_unix ->
      let rest = Bytes.sub_string b 2 (Bytes.length b - 2) in
      let path =
        match String.index_opt rest '\000' with
        | Some i -> String.sub rest 0 i
        | None -> rest
      in
      Some (Addr_un path)
    | _ -> None

let encode_timespec ~sec ~nsec =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 sec;
  Bytes.set_int64_le b 8 nsec;
  b

let decode_timespec b = (Bytes.get_int64_le b 0, Bytes.get_int64_le b 8)

let encode_dirents entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, ino, kind) ->
      let hdr = Bytes.create 10 in
      Bytes.set_int64_le hdr 0 (Int64.of_int ino);
      Bytes.set hdr 8 (Char.chr (kind_code kind));
      Bytes.set hdr 9 (Char.chr (String.length name land 0xff));
      Buffer.add_bytes buf hdr;
      Buffer.add_string buf name)
    entries;
  Buffer.to_bytes buf

let dirent_len b pos =
  if pos < 0 || pos + 10 > Bytes.length b then 0
  else
    let n = 10 + Char.code (Bytes.get b (pos + 9)) in
    if pos + n > Bytes.length b then 0 else n

let decode_dirents b =
  let len = Bytes.length b in
  let rec go pos acc =
    if pos + 10 > len then List.rev acc
    else begin
      let ino = Int64.to_int (Bytes.get_int64_le b pos) in
      let kind = Char.code (Bytes.get b (pos + 8)) in
      let nlen = Char.code (Bytes.get b (pos + 9)) in
      let name = Bytes.sub_string b (pos + 10) nlen in
      go (pos + 10 + nlen) ((ino, kind, name) :: acc)
    end
  in
  go 0 []
