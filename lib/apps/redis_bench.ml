type result = { op : string; rps : float }

let payload = "xxx" (* redis-benchmark's default 3-byte value *)

let op_request op i =
  let key = Printf.sprintf "key:%06d" (i mod 1000) in
  match op with
  | "PING_INLINE" | "PING_MBULK" -> "PING"
  | "SET" -> Printf.sprintf "SET %s %s" key payload
  | "GET" -> Printf.sprintf "GET %s" key
  | "INCR" -> "INCR counter"
  | "LPUSH" -> Printf.sprintf "LPUSH mylist %s" payload
  | "RPUSH" -> Printf.sprintf "RPUSH mylist %s" payload
  | "LPOP" -> "LPOP mylist"
  | "RPOP" -> "RPOP mylist"
  | "SADD" -> Printf.sprintf "SADD myset element:%06d" (i mod 1000)
  | "HSET" -> Printf.sprintf "HSET myhash field:%06d %s" (i mod 1000) payload
  | "SPOP" -> "SPOP myset"
  | "ZADD" -> Printf.sprintf "ZADD myzset %d element:%06d" (i mod 100) (i mod 1000)
  | "ZPOPMIN" -> "ZPOPMIN myzset"
  | "LRANGE_100" -> "LRANGE mylist 0 99"
  | "LRANGE_300" -> "LRANGE mylist 0 299"
  | "LRANGE_500" -> "LRANGE mylist 0 449"
  | "LRANGE_600" -> "LRANGE mylist 0 599"
  | "MSET" ->
    String.concat " "
      ("MSET"
      :: List.concat_map
           (fun k -> [ Printf.sprintf "key:%d:%d" k (i mod 1000); payload ])
           [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
  | other -> other

let read_reply conn buf =
  (* One reply per line for +/:/$ forms; "*n" is followed by n "$" lines. *)
  let acc = Buffer.create 128 in
  let read_more () =
    match Aster.Tcp.recv conn ~buf ~pos:0 ~len:(Bytes.length buf) with
    | Ok 0 | Error _ -> false
    | Ok n ->
      Buffer.add_subbytes acc buf 0 n;
      true
  in
  let lines_complete () =
    let s = Buffer.contents acc in
    match String.index_opt s '\n' with
    | None -> false
    | Some i ->
      if s.[0] <> '*' then true
      else begin
        let n = try int_of_string (String.sub s 1 (i - 1)) with _ -> 0 in
        let count = ref 0 in
        String.iter (fun ch -> if ch = '\n' then incr count) s;
        !count >= n + 1
      end
  in
  let rec go () = if lines_complete () then true else if read_more () then go () else false in
  go ()

let run_op ~host ~op ~clients ~requests ~on_done =
  let remaining = ref requests in
  let active = ref clients in
  let started = ref None in
  let htcp = host.Aster.Kernel.htcp in
  let finish () =
    decr active;
    if !active = 0 then begin
      let t0 = Option.value ~default:0 !started in
      let us = Sim.Time.to_us (Sim.Time.now () - t0) in
      on_done { op; rps = (if us > 0. then float_of_int requests /. us *. 1e6 else 0.) }
    end
  in
  for cl = 1 to clients do
    ignore
      (Ostd.Task.spawn
         ~name:(Printf.sprintf "redis-bench-%d" cl)
         (fun () ->
           let rec connect tries =
             match
               Aster.Tcp.connect htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:Mini_redis.port
             with
             | Ok conn -> Some conn
             | Error _ when tries > 0 ->
               Ostd.Task.sleep_us 300.;
               connect (tries - 1)
             | Error _ -> None
           in
           match connect 30 with
           | None -> finish ()
           | Some conn ->
             Aster.Tcp.set_nodelay conn;
             if !started = None then started := Some (Sim.Time.now ());
             let buf = Bytes.create 65536 in
             let i = ref 0 in
             let continue = ref true in
             while !continue do
               if !remaining <= 0 then continue := false
               else begin
                 decr remaining;
                 incr i;
                 let req = Bytes.of_string (op_request op !i ^ "\n") in
                 (match Aster.Tcp.send conn ~buf:req ~pos:0 ~len:(Bytes.length req) with
                 | Ok _ -> if not (read_reply conn buf) then continue := false
                 | Error _ -> continue := false)
               end
             done;
             Aster.Tcp.close conn;
             finish ()))
  done
