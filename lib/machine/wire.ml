type endpoint = {
  latency_us : float;
  bytes_per_cycle : float;
  mutable peer : endpoint option;
  mutable rx : bytes -> unit;
  mutable sent : int;
  (* Earliest cycle at which the link is free again; models serialisation
     so that back-to-back sends queue behind each other. *)
  mutable link_free_at : Sim.Time.t;
}

let make ~latency_us ~bytes_per_cycle =
  {
    latency_us;
    bytes_per_cycle;
    peer = None;
    rx = (fun _ -> ());
    sent = 0;
    link_free_at = 0;
  }

let create_pair ~latency_us ~bytes_per_cycle =
  let a = make ~latency_us ~bytes_per_cycle in
  let b = make ~latency_us ~bytes_per_cycle in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let on_receive ep f = ep.rx <- f

let send ep packet =
  match ep.peer with
  | None -> ()
  | Some peer ->
    ep.sent <- ep.sent + 1;
    let now = Sim.Time.now () in
    let serialize =
      int_of_float (float_of_int (Bytes.length packet) /. max 0.001 ep.bytes_per_cycle)
    in
    let done_at = Int.max ep.link_free_at now + serialize in
    ep.link_free_at <- done_at;
    let deliver_at = done_at + Sim.Time.of_us ep.latency_us in
    ignore (Sim.Events.schedule_at deliver_at (fun () -> peer.rx packet))

let packets_sent ep = ep.sent
