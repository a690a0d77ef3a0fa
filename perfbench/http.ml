(* http_static: closed-loop HTTP/1.0 clients, one connection per
   request, against the mini_nginx epoll worker pool. Each reply is
   verified for status, Content-Length and every body byte. *)

type file = { name : string; size : int; content : Bytes.t; request : Bytes.t }

(* The mix: 80% of requests hit a 4 KiB file and 20% a 64 KiB one,
   each spread over its own set of files. *)
let small_files = 48
let large_files = 12

(* Docroot file names are padded so that the path the server stages for
   open(2), "/tmp/www/<name>" plus its NUL, is exactly 64 bytes; see
   README.md for why. *)
let file_name ~cls i =
  let base = Printf.sprintf "%s-%02d" cls i in
  let stem = 64 - 1 - String.length "/tmp/www/" - String.length ".html" in
  base ^ String.make (stem - String.length base) '_' ^ ".html"

let make_files rng =
  let file cls size i =
    let name = file_name ~cls i in
    (* Seeded content, so serving the wrong file or the wrong offset
       fails verification. *)
    let content = Bytes.init size (fun _ -> Char.chr (33 + Random.State.int rng 94)) in
    let request = Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" name) in
    { name; size; content; request }
  in
  Array.append
    (Array.init small_files (file "f4k" 4096))
    (Array.init large_files (file "f64k" 65536))

(* Every block of five requests holds exactly one 64 KiB request, at a
   seeded position; the files of each class are used in a seeded cyclic
   order. Seeds thus offer the same load with the same burstiness, only
   arranged differently. *)
let make_plan rng ~requests =
  let order n =
    let a = Array.init n Fun.id in
    Pstats.shuffle rng a;
    a
  in
  let small = order small_files and large = order large_files in
  let ns = ref 0 and nl = ref 0 and slot = ref 0 in
  Array.init requests (fun i ->
      if i mod 5 = 0 then slot := Random.State.int rng 5;
      if i mod 5 = !slot then begin
        incr nl;
        small_files + large.((!nl - 1) mod large_files)
      end
      else begin
        incr ns;
        small.((!ns - 1) mod small_files)
      end)

(* The server's own set-up, run inside its process before it listens. *)
let write_docroot c files =
  ignore (Apps.Libc.mkdir c "/tmp/www");
  Array.iter
    (fun f ->
      let fd = Apps.Libc.openf c ("/tmp/www/" ^ f.name) ~flags:0o101 ~mode:0o644 in
      let vaddr = Apps.Libc.ualloc c f.size in
      (Apps.Libc.raw c).Ostd.User.mem_write vaddr f.content;
      let written = ref 0 in
      while !written < f.size do
        let n = Apps.Libc.write c ~fd ~vaddr:(vaddr + !written) ~len:(f.size - !written) in
        if n <= 0 then failwith ("perfbench: docroot write failed for " ^ f.name);
        written := !written + n
      done;
      ignore (Apps.Libc.close c fd))
    files

let find_sub buf ~len pat =
  let m = String.length pat in
  let rec matches i j = j = m || (Bytes.get buf (i + j) = pat.[j] && matches i (j + 1)) in
  let rec go i = if i + m > len then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let parse_status hdr ~len =
  (* "HTTP/1.x NNN ..." *)
  if len >= 12 && Bytes.sub_string hdr 0 5 = "HTTP/" then
    int_of_string_opt (Bytes.sub_string hdr 9 3)
  else None

let parse_length hdr ~len =
  let key = "\r\nContent-Length: " in
  match find_sub hdr ~len key with
  | None -> None
  | Some i ->
    let j = ref (i + String.length key) in
    let v = ref 0 in
    while !j < len && Bytes.get hdr !j >= '0' && Bytes.get hdr !j <= '9' do
      v := (!v * 10) + Char.code (Bytes.get hdr !j) - 48;
      incr j
    done;
    if !j = i + String.length key then None else Some !v

type client = {
  hdr : Bytes.t;
  bodies : (int, Bytes.t) Hashtbl.t; (* one receive buffer per file size *)
  lap : Meter.lap;
}

let recv cl conn ~buf ~pos ~len =
  Meter.pause cl.lap;
  let r = Aster.Tcp.recv conn ~buf ~pos ~len in
  Meter.resume cl.lap;
  r

(* Read to end of stream, discarding. *)
let drain cl conn =
  let rec go () =
    match recv cl conn ~buf:cl.hdr ~pos:0 ~len:(Bytes.length cl.hdr) with
    | Ok 0 | Error _ -> ()
    | Ok _ -> go ()
  in
  go ()

let read_reply cl conn f =
  let hdr = cl.hdr in
  (* Header: until the blank line. *)
  let rec head len =
    match find_sub hdr ~len "\r\n\r\n" with
    | Some i -> Ok (len, i + 4)
    | None ->
      if len = Bytes.length hdr then Error Meter.Mismatch
      else (
        match recv cl conn ~buf:hdr ~pos:len ~len:(Bytes.length hdr - len) with
        | Error _ -> Error (Meter.Errno "recv")
        | Ok 0 -> Error Meter.Short
        | Ok n -> head (len + n))
  in
  match head 0 with
  | Error e -> Error e
  | Ok (len, body0) -> (
    match parse_status hdr ~len with
    | None -> Error Meter.Mismatch
    | Some code when code <> 200 ->
      drain cl conn;
      Error (Meter.Status code)
    | Some _ -> (
      match parse_length hdr ~len with
      | Some n when n = f.size ->
        let body =
          match Hashtbl.find_opt cl.bodies n with
          | Some b -> b
          | None ->
            let b = Bytes.create n in
            Hashtbl.add cl.bodies n b;
            b
        in
        let early = len - body0 in
        if early > n then Error Meter.Mismatch
        else begin
          Bytes.blit hdr body0 body 0 early;
          let rec fill got =
            if got = n then Ok ()
            else
              match recv cl conn ~buf:body ~pos:got ~len:(n - got) with
              | Error _ -> Error (Meter.Errno "recv")
              | Ok 0 -> Error Meter.Short
              | Ok k -> fill (got + k)
          in
          match fill early with
          | Error e -> Error e
          | Ok () -> (
            (* The server closes after the body: anything more is wrong. *)
            match recv cl conn ~buf:hdr ~pos:0 ~len:(Bytes.length hdr) with
            | Ok 0 -> if Bytes.equal body f.content then Ok n else Error Meter.Mismatch
            | Ok _ -> Error Meter.Mismatch
            | Error _ -> Error (Meter.Errno "recv"))
        end
      | _ ->
        drain cl conn;
        Error Meter.Mismatch))

(* Connection refusals before the server listens are retried every
   200 µs, up to this budget per op. *)
let connect_budget = 200

let request cl meter htcp f =
  let rec connect left =
    Meter.pause cl.lap;
    let r = Aster.Tcp.connect htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:Apps.Mini_nginx.port in
    Meter.resume cl.lap;
    match r with
    | Ok conn -> Some conn
    | Error _ when left > 0 ->
      meter.Meter.retries <- meter.Meter.retries + 1;
      Meter.pause cl.lap;
      Ostd.Task.sleep_us 200.;
      Meter.resume cl.lap;
      connect (left - 1)
    | Error _ -> None
  in
  match connect connect_budget with
  | None -> Error Meter.Refused
  | Some conn ->
    Meter.pause cl.lap;
    Aster.Tcp.set_nodelay conn;
    let sent = Aster.Tcp.send conn ~buf:f.request ~pos:0 ~len:(Bytes.length f.request) in
    Meter.resume cl.lap;
    let r =
      match sent with
      | Ok n when n = Bytes.length f.request -> read_reply cl conn f
      | Ok _ -> Error Meter.Short
      | Error _ -> Error (Meter.Errno "send")
    in
    Meter.pause cl.lap;
    Aster.Tcp.close conn;
    Meter.resume cl.lap;
    r

let clients = 32

(* Spawn the server and the client tasks for one round; the caller runs
   the kernel. Returns the per-client laps for host attribution. *)
let start ~k ~meter ~seed ~instr =
  let host = Aster.Kernel.attach_host k in
  let rng = Random.State.make [| seed; 0x477 |] in
  let files = make_files rng in
  let plan = make_plan rng ~requests:meter.Meter.total in
  Apps.Runner.spawn ~name:"mini-nginx" (fun c ->
      write_docroot c files;
      Apps.Mini_nginx.server ~requests:meter.Meter.total c);
  List.init clients (fun i ->
      let cl = { hdr = Bytes.create 2048; bodies = Hashtbl.create 2; lap = Meter.lap ~on:instr } in
      ignore
        (Ostd.Task.spawn
           ~name:(Printf.sprintf "http-client-%d" i)
           (fun () ->
             Meter.resume cl.lap;
             let rec loop () =
               match Meter.issue meter with
               | None -> ()
               | Some tk ->
                 let r = request cl meter host.Aster.Kernel.htcp files.(plan.(tk.Meter.idx)) in
                 (* The meter's speed probes are not load-generator code. *)
                 Meter.pause cl.lap;
                 Meter.complete meter tk r;
                 Meter.resume cl.lap;
                 loop ()
             in
             loop ();
             Meter.pause cl.lap));
      cl.lap)
