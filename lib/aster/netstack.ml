let loopback_ip = Packet.ip_of_string "127.0.0.1"

(* A plugged TX queue flushes when the burst reaches this many segments,
   mirroring the block layer's 32-bio descriptor-chain limit. *)
let burst_limit = 32

type t = {
  addr : int;
  host : bool;
  mutable ext_tx : Packet.t -> unit;
  mutable ext_tx_many : (Packet.t list -> unit) option;
  mutable tcp_rx : Packet.t -> unit;
  mutable udp_rx : Packet.t -> unit;
  mutable tx_err : Packet.t -> unit;
  mutable plug : Packet.t list; (* reversed burst under collection *)
  mutable plug_n : int;
  mutable flush_scheduled : bool;
}

(* Every live stack, so the syscall boundary can flush pending bursts
   without knowing who owns them. Reset at boot: stale stacks from a
   previous machine must not be flushed into recycled device state. *)
let stacks : t list ref = ref []

let reset_registry () = stacks := []

let create ~ip ~host =
  let t =
    {
      addr = ip;
      host;
      ext_tx = (fun _ -> ());
      ext_tx_many = None;
      tcp_rx = (fun _ -> ());
      udp_rx = (fun _ -> ());
      tx_err = (fun _ -> ());
      plug = [];
      plug_n = 0;
      flush_scheduled = false;
    }
  in
  stacks := t :: !stacks;
  t

let ip t = t.addr

let is_host t = t.host

let set_ext_tx t f = t.ext_tx <- f

let set_ext_tx_many t f = t.ext_tx_many <- Some f

let set_tcp_rx t f = t.tcp_rx <- f

let set_udp_rx t f = t.udp_rx <- f

let set_tx_err t f = t.tx_err <- f

let tx_error t p = t.tx_err p

let charge t n = if not t.host then Sim.Cost.charge n

let proto_name = function Packet.Tcp -> "tcp" | Packet.Udp -> "udp"

(* One packet: its payload length, then the ports, with the protocol's
   name as the string field. A burst carries the same first two fields,
   so a consumer of net:tx or net:rx reads bytes and nseg from both. *)
let packet_point name =
  Sim.Trace.point Sim.Trace.Net name [| "bytes"; "nseg"; "sport"; "dport" |] (fun f ->
      Printf.sprintf "proto=%s sport=%d dport=%d len=%d" f.s f.c f.d f.a)

let burst_point name =
  Sim.Trace.point Sim.Trace.Net name [| "bytes"; "nseg" |] (fun f ->
      Printf.sprintf "nseg=%d bytes=%d" f.b f.a)

let tp_rx = packet_point "rx"

let tp_tx = packet_point "tx"

let tp_rx_burst = burst_point "rx"

let tp_tx_burst = burst_point "tx"

let emit_packet tp (p : Packet.t) =
  Sim.Trace.emit_s tp (proto_name p.Packet.proto) p.Packet.len 1
    p.Packet.src_port p.Packet.dst_port 0 0

let burst_bytes ps = List.fold_left (fun a (p : Packet.t) -> a + p.Packet.len) 0 ps

let emit_burst tp ps =
  if Sim.Trace.live tp then Sim.Trace.emit2 tp (burst_bytes ps) (List.length ps)

let dispatch_proto t (p : Packet.t) =
  match p.Packet.proto with
  | Packet.Tcp -> t.tcp_rx p
  | Packet.Udp -> t.udp_rx p

(* kprof: protocol processing on both paths folds under "net". *)
let dispatch t (p : Packet.t) =
  Sim.Prof.scope "net" (fun () ->
      emit_packet tp_rx p;
      dispatch_proto t p)

let rx t p = dispatch t p

(* NAPI-coalesced delivery from the driver's bottom half: one tracepoint
   for the whole reaped batch, not one per segment. *)
let rx_many t ps n =
  if n > 0 then
    Sim.Prof.scope "net" (fun () ->
        if Sim.Trace.live tp_rx_burst then begin
          let bytes = ref 0 in
          for i = 0 to n - 1 do
            bytes := !bytes + ps.(i).Packet.len
          done;
          Sim.Trace.emit2 tp_rx_burst !bytes n
        end;
        for i = 0 to n - 1 do
          dispatch_proto t ps.(i)
        done)

let batching_on t =
  (not t.host)
  && t.ext_tx_many <> None
  && (Sim.Profile.get ()).Sim.Profile.net_tx_batching

(* Hand the collected burst to the driver's scatter-gather path: one
   descriptor chain, one doorbell, one tracepoint. *)
let flush t =
  if t.plug_n > 0 then begin
    let ps = List.rev t.plug in
    t.plug <- [];
    t.plug_n <- 0;
    (* kspan: time spent parked in the plug queue is its own leg; the
       driver's service/IRQ split picks up from here. *)
    let now = Sim.Time.now () in
    List.iter
      (fun (p : Packet.t) ->
        if p.Packet.span > 0 && p.Packet.span_t0 > 0 then begin
          Sim.Span.add_to p.Packet.span "net.plug" p.Packet.span_t0 now;
          p.Packet.span_t0 <- now
        end)
      ps;
    Sim.Prof.scope "net" (fun () ->
        Sim.Stats.incr "net.burst";
        emit_burst tp_tx_burst ps;
        (match t.ext_tx_many with
        | Some f -> f ps
        | None -> List.iter t.ext_tx ps);
        (* The driver has staged every segment: what they borrowed may
           unpin. *)
        List.iter Packet.give_back ps)
  end

let flush_all () = List.iter flush !stacks

let send t p =
  Sim.Prof.scope "net" (fun () ->
      (* Adopt the sender's span for segments built outside task context
         (pure ACKs from event handlers keep span 0); the TX-path entry
         stamp restarts per transmission attempt. *)
      if p.Packet.span = 0 then p.Packet.span <- Sim.Span.current ();
      p.Packet.span_t0 <- Sim.Time.now ();
      let dst = p.Packet.dst_ip in
      if dst = loopback_ip || dst = t.addr then begin
        emit_packet tp_tx p;
        (* Loopback: softirq-style asynchronous hand-off. The receiver
           queues the payload by reference, so a segment that borrows
           slices goes as a copy of them, made now; their pins stay with
           the sending connection until the ACK. *)
        let p = Packet.flatten p in
        charge t (Sim.Cost.c ()).Sim.Profile.loopback_delivery;
        ignore (Sim.Events.schedule_after 0 (fun () -> dispatch t p))
      end
      else if batching_on t then begin
        (* Plug: collect the segment; the burst flushes at the syscall
           boundary, at [burst_limit], or via the scheduled fallback for
           segments emitted from event context (RTO, delayed ACK). *)
        Sim.Stats.incr "net.tx_queued";
        (* A plugged segment is staged only at the flush: until then no
           view it reads may unpin, even at a reset. *)
        Packet.borrow p;
        t.plug <- p :: t.plug;
        t.plug_n <- t.plug_n + 1;
        if t.plug_n >= burst_limit then flush t
        else if not t.flush_scheduled then begin
          t.flush_scheduled <- true;
          ignore
            (Sim.Events.schedule_after 0 (fun () ->
                 t.flush_scheduled <- false;
                 flush t))
        end
      end
      else begin
        emit_packet tp_tx p;
        t.ext_tx p
      end)
