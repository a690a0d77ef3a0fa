(* kv_mixed: closed-loop clients on persistent connections to
   mini_redis, GET:SET 3:1 over client-private keys with seeded value
   sizes. A GET must return the value of the client's last
   acknowledged SET of that key, byte for byte. *)

let clients = 16
let keys_per_client = 32

(* Each client first SETs every one of its keys (part of the warm-up),
   so every later GET has an acknowledged value to check against. *)
let preload_ops = clients * keys_per_client

(* Value sizes follow the ETC pool of Facebook's memcached fleet: a
   generalized Pareto distribution with location 0, scale 214.476 and
   shape 0.348238 (Atikoglu et al., "Workload Analysis of a Large-Scale
   Key-Value Store", SIGMETRICS 2012), clamped to 8..1024 B so that a
   value holds its version and a reply fits the client's buffer. A
   client's sizes are this distribution's evenly spaced quantiles in
   seeded order, so seeds differ in order, not in bytes moved. *)
let value_size q =
  let scale = 214.476 and shape = 0.348238 in
  let x = scale /. shape *. (((1. -. q) ** -.shape) -. 1.) in
  max 8 (min 1024 (int_of_float x))

(* Value bytes are a function of (client, key, version, size): the
   version is spelled out first, so a stale or foreign value never
   compares equal. No spaces or newlines, as the protocol requires. *)
let write_value buf pos ~c ~j ~v ~size =
  let digits = string_of_int v in
  let d = String.length digits in
  Bytes.blit_string digits 0 buf pos d;
  Bytes.set buf (pos + d) ':';
  for k = d + 1 to size - 1 do
    Bytes.set buf (pos + k) (Char.chr (97 + (((c * 7) + (j * 3) + k) mod 26)))
  done

type op = Get of int | Set of int * int (* key, value size *)

(* Exactly one op in four of the mixed phase is a SET, on a seeded key. *)
let make_plan ~seed ~c ~ops =
  let rng = Random.State.make [| seed; 0x6b76; c |] in
  let sets = ops / 4 in
  let nsizes = keys_per_client + sets in
  let sizes = Array.init nsizes (fun i -> value_size ((float_of_int i +. 0.5) /. float_of_int nsizes)) in
  Pstats.shuffle rng sizes;
  let is_set = Array.init ops (fun i -> i < sets) in
  Pstats.shuffle rng is_set;
  let next = ref keys_per_client in
  let mixed =
    Array.map
      (fun set ->
        let j = Random.State.int rng keys_per_client in
        if set then begin
          let size = sizes.(!next) in
          incr next;
          Set (j, size)
        end
        else Get j)
      is_set
  in
  Array.append (Array.init keys_per_client (fun j -> Set (j, sizes.(j)))) mixed

type client = {
  c : int;
  out : Bytes.t; (* request staging *)
  inb : Bytes.t; (* reply accumulation *)
  expect : Bytes.t;
  version : int array; (* last acknowledged version per key *)
  vsize : int array;
  lap : Meter.lap;
}

let max_reply = 2048

(* Read one '\n'-terminated reply into [inb]; its length. *)
let read_line cl conn =
  let rec go len =
    let rec nl i = i < len && (Bytes.get cl.inb i = '\n' || nl (i + 1)) in
    if nl 0 then Ok len
    else if len = max_reply then Error Meter.Mismatch
    else begin
      Meter.pause cl.lap;
      let r = Aster.Tcp.recv conn ~buf:cl.inb ~pos:len ~len:(max_reply - len) in
      Meter.resume cl.lap;
      match r with
      | Error _ -> Error (Meter.Errno "recv")
      | Ok 0 -> Error Meter.Short
      | Ok n -> go (len + n)
    end
  in
  go 0

let reply_is cl ~len s = len = String.length s && Bytes.sub_string cl.inb 0 len = s

let send cl conn len =
  Meter.pause cl.lap;
  let r = Aster.Tcp.send conn ~buf:cl.out ~pos:0 ~len in
  Meter.resume cl.lap;
  match r with Ok n when n = len -> Ok () | Ok _ -> Error Meter.Short | Error _ -> Error (Meter.Errno "send")

let key_name cl j = Printf.sprintf "k%d_%d" cl.c j

let run_op cl conn op =
  match op with
  | Set (j, size) -> (
    let v = cl.version.(j) + 1 in
    let head = Printf.sprintf "SET %s " (key_name cl j) in
    let h = String.length head in
    Bytes.blit_string head 0 cl.out 0 h;
    write_value cl.out h ~c:cl.c ~j ~v ~size;
    Bytes.set cl.out (h + size) '\n';
    match send cl conn (h + size + 1) with
    | Error e -> Error e
    | Ok () -> (
      match read_line cl conn with
      | Error e -> Error e
      | Ok len ->
        if reply_is cl ~len "+OK\n" then begin
          cl.version.(j) <- v;
          cl.vsize.(j) <- size;
          Ok size
        end
        else Error Meter.Mismatch))
  | Get j -> (
    let req = Printf.sprintf "GET %s\n" (key_name cl j) in
    Bytes.blit_string req 0 cl.out 0 (String.length req);
    match send cl conn (String.length req) with
    | Error e -> Error e
    | Ok () -> (
      match read_line cl conn with
      | Error e -> Error e
      | Ok len ->
        let size = cl.vsize.(j) in
        (* "$<value>\n" *)
        Bytes.set cl.expect 0 '$';
        write_value cl.expect 1 ~c:cl.c ~j ~v:cl.version.(j) ~size;
        Bytes.set cl.expect (size + 1) '\n';
        let rec same i = i = len || (Bytes.get cl.inb i = Bytes.get cl.expect i && same (i + 1)) in
        if cl.version.(j) > 0 && len = size + 2 && same 0 then Ok size else Error Meter.Mismatch))

let connect_budget = 200

let start ~k ~meter ~seed ~instr =
  let host = Aster.Kernel.attach_host k in
  let total = meter.Meter.total in
  if total mod clients <> 0 || total / clients <= keys_per_client then
    invalid_arg "Kv.start: ops must split evenly over the clients, after the preload";
  Apps.Mini_redis.spawn ();
  List.init clients (fun c ->
      let plan = make_plan ~seed ~c ~ops:((total / clients) - keys_per_client) in
      let cl =
        {
          c;
          out = Bytes.create max_reply;
          inb = Bytes.create max_reply;
          expect = Bytes.create max_reply;
          version = Array.make keys_per_client 0;
          vsize = Array.make keys_per_client 0;
          lap = Meter.lap ~on:instr;
        }
      in
      ignore
        (Ostd.Task.spawn
           ~name:(Printf.sprintf "kv-client-%d" c)
           (fun () ->
             Meter.resume cl.lap;
             let rec connect left =
               Meter.pause cl.lap;
               let r =
                 Aster.Tcp.connect host.Aster.Kernel.htcp ~dst_ip:Aster.Kernel.guest_ip
                   ~dst_port:Apps.Mini_redis.port
               in
               Meter.resume cl.lap;
               match r with
               | Ok conn -> Some conn
               | Error _ when left > 0 ->
                 meter.Meter.retries <- meter.Meter.retries + 1;
                 Meter.pause cl.lap;
                 Ostd.Task.sleep_us 300.;
                 Meter.resume cl.lap;
                 connect (left - 1)
               | Error _ -> None
             in
             let conn = connect connect_budget in
             Option.iter
               (fun conn ->
                 Meter.pause cl.lap;
                 Aster.Tcp.set_nodelay conn;
                 Meter.resume cl.lap)
               conn;
             (* A client's ops are its own plan in order; the meter only
                numbers them globally. *)
             Array.iter
               (fun op ->
                 match Meter.issue meter with
                 | None -> ()
                 | Some tk ->
                   let r = match conn with None -> Error Meter.Refused | Some conn -> run_op cl conn op in
                   (* The meter's speed probes are not load-generator code. *)
                   Meter.pause cl.lap;
                   Meter.complete meter tk r;
                   Meter.resume cl.lap)
               plan;
             Meter.pause cl.lap;
             Option.iter Aster.Tcp.close conn));
      cl.lap)
