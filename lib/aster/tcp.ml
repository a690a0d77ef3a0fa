let mss = Packet.mss

(* Growable byte FIFO used for send queues and receive buffers. A chunk
   is a byte range or a range of a sendfile view, whose pins the
   connection holds (see [pinned]).

   Ownership: a buffer handed over outright ([~owned:true]: a decoded
   RX payload) is queued by reference, and a segment that is exactly
   one whole chunk buffer leaves by reference too. Any other buffer is
   copied on push, since its caller may reuse it the moment the call
   returns. Queued bytes are never written. *)
module Fifo = struct
  (* The unread bytes are [data.[off, stop)], or the view's
     [[off, stop)]. *)
  type chunk =
    | Buf of { data : Bytes.t; mutable off : int; stop : int }
    | View of { view : Page_cache.view; mutable off : int; stop : int }

  type t = { q : chunk Queue.t; mutable len : int; mutable views : int }

  let create () = { q = Queue.create (); len = 0; views = 0 }

  let length t = t.len

  let push ?(owned = false) t b pos n =
    if n > 0 then begin
      let data, off = if owned then (b, pos) else (Bytes.sub b pos n, 0) in
      Queue.push (Buf { data; off; stop = off + n }) t.q;
      t.len <- t.len + n
    end

  let push_view t view pos n =
    if n > 0 then begin
      Queue.push (View { view; off = pos; stop = pos + n }) t.q;
      t.len <- t.len + n;
      t.views <- t.views + 1
    end

  (* Take up to [n] bytes from the head chunks, handing each piece to
     [f chunk off k take], [k] being the count before it; returns the
     count. *)
  let consume t n f =
    let moved = ref 0 in
    while !moved < n && not (Queue.is_empty t.q) do
      let c = Queue.peek t.q in
      let off = match c with Buf b -> b.off | View v -> v.off in
      let stop = match c with Buf b -> b.stop | View v -> v.stop in
      let take = min (stop - off) (n - !moved) in
      f c off !moved take;
      (match c with Buf b -> b.off <- off + take | View v -> v.off <- off + take);
      if off + take = stop then begin
        ignore (Queue.pop t.q);
        match c with View _ -> t.views <- t.views - 1 | Buf _ -> ()
      end;
      moved := !moved + take
    done;
    t.len <- t.len - !moved;
    !moved

  let blit c off out at take =
    match c with
    | Buf b -> Bytes.blit b.data off out at take
    | View v -> Page_cache.view_blit v.view ~pos:off ~buf:out ~boff:at ~len:take

  (* Receive-side drain into a caller buffer. *)
  let pop_into t out pos n = consume t n (fun c off k take -> blit c off out (pos + k) take)

  (* Transmit-side pop of up to [n] bytes: bytes of the segment's own,
     or, once the queue holds a view, the slices it borrows. *)
  let pop t n =
    let want = min n t.len in
    if t.views > 0 then begin
      let slices = ref [] in
      ignore
        (consume t want (fun c off _ take ->
             let s =
               match c with
               | Buf b -> Packet.Buf (b.data, off, take)
               | View v -> Packet.View (v.view, off, take)
             in
             slices := s :: !slices));
      (Bytes.empty, List.rev !slices)
    end
    else
      match Queue.peek_opt t.q with
      | Some (Buf b) when b.off = 0 && b.stop = want && Bytes.length b.data = want ->
        ignore (Queue.pop t.q);
        t.len <- t.len - want;
        (b.data, [])
      | _ ->
        let out = Bytes.create want in
        ignore (consume t want (fun c off k take -> blit c off out k take));
        (out, [])

  let clear t =
    Queue.clear t.q;
    t.len <- 0;
    t.views <- 0
end

type conn_state = Syn_sent | Syn_rcvd | Established | Closed

(* A range of a sendfile view in the send queue: the view's bytes
   [[.., stop)] went in after byte [first] of the stream, so the view's
   byte [i] is the stream's byte [first + i]. *)
type pinned = { first : int; view : Page_cache.view; stop : int }

type engine = {
  stack : Netstack.t;
  cc : bool;
  (* Connections by (local port, remote ip, remote port), chained in a
     power-of-two bucket array and found from the three ints without
     building a key (see [find_conn]). Nothing iterates it, so its
     order never reaches virtual time. *)
  mutable conns : conn list array;
  mutable nconns : int;
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
}

and listener = {
  l_eng : engine;
  l_port : int;
  backlog : conn Queue.t;
  l_backlog_max : int; (* listen(2) backlog cap; SYNs beyond it drop *)
  accept_wq : Ostd.Wait_queue.t;
  l_pollable : Pollable.t; (* POLLIN while the accept queue is non-empty *)
}

and conn = {
  eng : engine;
  lip : int; (* local address: loopback connections stay on 127.0.0.1 *)
  lport : int;
  rip : int;
  rport : int;
  mutable state : conn_state;
  (* send side *)
  txq : Fifo.t;
  inflight : Packet.t Queue.t; (* segments sent and not yet acknowledged *)
  pinned : pinned Queue.t;
      (* the view ranges queued, in stream order: their pins drop as
         the ACKs cover them *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable peer_win : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable rto_event : Sim.Events.handle option;
      (* the SYN or SYN-ACK retransmit until Established, the data RTO after *)
  snd_wq : Ostd.Wait_queue.t;
  (* receive side *)
  rcvbuf : Fifo.t;
  rcvbuf_cap : int;
  mutable rcv_nxt : int;
  mutable peer_fin : bool;
  mutable rd_shut : bool; (* shutdown(SHUT_RD): reads end once the queue drains *)
  mutable local_closed : bool;
  mutable reset : bool;
  mutable timed_out : bool; (* handshake retries exhausted *)
  rcv_wq : Ostd.Wait_queue.t;
  conn_wq : Ostd.Wait_queue.t;
  mutable delack_event : Sim.Events.handle option;
  mutable unacked : int; (* bytes received since the last ACK we sent *)
  mutable rx_segments : int; (* data segments received on this connection *)
  mutable nodelay : bool; (* TCP_NODELAY: disable the Nagle hold *)
  pollable : Pollable.t; (* readiness seam: edges published below *)
}

let rto_cycles = Sim.Time.of_us 40_000. (* 40 ms *)

(* A lossy or fault-injected link can eat SYN / SYN-ACK; data has the
   RTO to cover it, the handshake needs its own bounded retransmit or a
   connect sleeps forever. *)
let handshake_max_tries = 8

let initial_cwnd = 10 * mss

(* Send buffer capacity in bytes, the same on every profile. *)
let sndbuf_cap = 256 * 1024

let bucket eng ~lport ~rip ~rport =
  let h = (((rip * 0x9e3779b1) lxor (lport lsl 16)) lxor rport) * 0x85ebca6b in
  (h lxor (h lsr 29)) land (Array.length eng.conns - 1)

(* The chain from the connection with this key on, [[]] when there is
   none: a match on it finds the connection without allocating. *)
let rec chain_from ~lport ~rip ~rport = function
  | c :: _ as l when c.lport = lport && c.rip = rip && c.rport = rport -> l
  | _ :: tl -> chain_from ~lport ~rip ~rport tl
  | [] -> []

let find_conn eng ~lport ~rip ~rport =
  chain_from ~lport ~rip ~rport eng.conns.(bucket eng ~lport ~rip ~rport)

(* Unbind whichever connection holds [c]'s key. *)
let forget_key eng c =
  let i = bucket eng ~lport:c.lport ~rip:c.rip ~rport:c.rport in
  match chain_from ~lport:c.lport ~rip:c.rip ~rport:c.rport eng.conns.(i) with
  | [] -> ()
  | bound :: _ ->
    eng.conns.(i) <- List.filter (fun x -> x != bound) eng.conns.(i);
    eng.nconns <- eng.nconns - 1

(* Bind [c] under its key, replacing any connection bound there. *)
let bind_conn eng c =
  forget_key eng c;
  if eng.nconns >= 2 * Array.length eng.conns then begin
    let old = eng.conns in
    eng.conns <- Array.make (2 * Array.length old) [];
    Array.iter
      (List.iter (fun c ->
           let i = bucket eng ~lport:c.lport ~rip:c.rip ~rport:c.rport in
           eng.conns.(i) <- c :: eng.conns.(i)))
      old
  end;
  let i = bucket eng ~lport:c.lport ~rip:c.rip ~rport:c.rport in
  eng.conns.(i) <- c :: eng.conns.(i);
  eng.nconns <- eng.nconns + 1

(* Per-segment transmit processing; sub-MSS writes are charged at the
   send(2) call instead (see [send]). A "segment" here is a TSO
   super-segment of up to [Packet.gso_max_size] bytes: the NIC splits it
   into MSS wire frames and computes their checksums. *)
let charge_tx eng = Netstack.charge eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_tx_segment

(* Receive processing: tiny segments take the header-prediction fast
   path; full segments pay the per-segment base plus a per-byte part
   (the NIC has verified the checksum). GRO hands this function one
   merged super-segment per burst; the invocation count
   ([tcp.rx_calls], guest only) is what the GRO gate checks. *)
let charge_rx eng len =
  let c = Sim.Cost.c () in
  if not (Netstack.is_host eng.stack) then Sim.Stats.incr "tcp.rx_calls";
  if len < mss then
    Netstack.charge eng.stack (c.Sim.Profile.tcp_rx_small + (len / c.Sim.Profile.tcp_rx_small_bpc))
  else Netstack.charge eng.stack (c.Sim.Profile.tcp_rx_segment + (len / c.Sim.Profile.tcp_rx_bpc))

let free_window conn = conn.rcvbuf_cap - Fifo.length conn.rcvbuf

let make_conn eng ~lip ~lport ~rip ~rport ~state =
  (* Connection object setup (socket buffers, timers, hash insertion,
     firewall hooks) — where a full Linux stack pays far more than a
     lean smoltcp-style one. *)
  Netstack.charge eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_conn_setup;
  let conn =
  {
    eng;
    lip;
    lport;
    rip;
    rport;
    state;
    txq = Fifo.create ();
    inflight = Queue.create ();
    pinned = Queue.create ();
    snd_una = 0;
    snd_nxt = 0;
    peer_win = 64 * 1024;
    cwnd = initial_cwnd;
    ssthresh = max_int;
    rto_event = None;
    snd_wq = Ostd.Wait_queue.create ();
    rcvbuf = Fifo.create ();
    rcvbuf_cap = 256 * 1024;
    rcv_nxt = 0;
    peer_fin = false;
    rd_shut = false;
    local_closed = false;
    reset = false;
    timed_out = false;
    rcv_wq = Ostd.Wait_queue.create ();
    conn_wq = Ostd.Wait_queue.create ();
    delack_event = None;
    unacked = 0;
    rx_segments = 0;
    nodelay = false;
    pollable = Pollable.create (fun () -> 0);
  }
  in
  (* Level semantics (see DESIGN §4k): readable on buffered data, EOF
     or reset; writable only while established with send-buffer space;
     HUP/RDHUP on peer close; ERR on reset. *)
  Pollable.set_level conn.pollable (fun () ->
      (if Fifo.length conn.rcvbuf > 0 || conn.peer_fin || conn.rd_shut || conn.reset then
         Pollable.pollin
       else 0)
      lor (if conn.peer_fin then Pollable.pollrdhup lor Pollable.pollhup else 0)
      lor (if conn.reset then Pollable.pollerr lor Pollable.pollhup else 0)
      lor
      if
        conn.state = Established && (not conn.local_closed) && (not conn.reset)
        && Fifo.length conn.txq < sndbuf_cap
      then Pollable.pollout
      else 0);
  conn

let segment conn ?(flags = Packet.ack_flag) ?(seq = 0) ?slices payload =
  Packet.make ~src_ip:conn.lip ~dst_ip:conn.rip ~proto:Packet.Tcp ~src_port:conn.lport
    ~dst_port:conn.rport ~flags ~seq ~ack:conn.rcv_nxt ~win:(free_window conn) ?slices payload

let emit conn ?flags ?seq payload = Netstack.send conn.eng.stack (segment conn ?flags ?seq payload)

let stop_rto conn =
  match conn.rto_event with
  | Some ev ->
    Sim.Events.cancel ev;
    conn.rto_event <- None
  | None -> ()

let stop_delack conn =
  match conn.delack_event with
  | Some ev ->
    Sim.Events.cancel ev;
    conn.delack_event <- None
  | None -> ()

(* Forget the connection once the app has closed it and both
   directions are done: ours by our FIN or a reset (either one leaves
   [Closed]), the peer's by its FIN or a reset. A fuller implementation
   would hold TIME_WAIT. *)
let forget_if_done conn =
  if conn.local_closed && conn.state = Closed && (conn.peer_fin || conn.reset) then
    forget_key conn.eng conn

(* Each pin of a view drops once every segment holding the byte it
   backs is acknowledged, [upto] being the first byte still unacked: a
   retransmit resends whole segments, so a partly acked one keeps its
   pins. *)
let unpin_upto conn upto =
  let continue = ref true in
  while !continue && not (Queue.is_empty conn.pinned) do
    let r = Queue.peek conn.pinned in
    Page_cache.unpin r.view ~upto:(min (upto - r.first) r.stop);
    if upto - r.first >= r.stop then ignore (Queue.pop conn.pinned) else continue := false
  done

(* A reset, received or sent, ends all the connection still had going:
   its timers, its queued and unacked data, and the pins of its views
   (so pin/unpin conservation survives resets). *)
let reset conn =
  conn.reset <- true;
  conn.state <- Closed;
  stop_rto conn;
  stop_delack conn;
  Queue.clear conn.inflight;
  Fifo.clear conn.txq;
  Queue.iter (fun r -> Page_cache.unpin r.view ~upto:max_int) conn.pinned;
  Queue.clear conn.pinned;
  ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
  ignore (Ostd.Wait_queue.wake_all conn.snd_wq);
  ignore (Ostd.Wait_queue.wake_all conn.conn_wq);
  Pollable.publish conn.pollable (Pollable.pollin lor Pollable.pollerr lor Pollable.pollhup);
  forget_if_done conn

let send_pure_ack conn =
  stop_delack conn;
  conn.unacked <- 0;
  emit conn Bytes.empty

let delack_cycles = Sim.Time.of_us 500.

(* Delayed ACK: full segments in a stream are acknowledged every other
   segment (or after a short timer); sub-MSS arrivals ACK immediately so
   Nagle on the other side never stalls a ping-pong. *)
let ack_after_data conn len =
  conn.unacked <- conn.unacked + len;
  conn.rx_segments <- conn.rx_segments + 1;
  if len < mss || conn.unacked >= 2 * mss then send_pure_ack conn
  else if conn.delack_event = None then
    conn.delack_event <-
      Some
        (Sim.Events.schedule_after delack_cycles (fun () ->
             conn.delack_event <- None;
             if conn.unacked > 0 then send_pure_ack conn))

(* --- Transmit machinery --- *)

let effective_window conn =
  let w = if conn.eng.cc then min conn.peer_win conn.cwnd else conn.peer_win in
  w - (conn.snd_nxt - conn.snd_una)

let rec arm_rto conn =
  match conn.rto_event with
  | Some _ -> ()
  | None ->
    if not (Queue.is_empty conn.inflight) then
      conn.rto_event <- Some (Sim.Events.schedule_after rto_cycles (fun () -> on_rto conn))

and on_rto conn =
  conn.rto_event <- None;
  if not (Queue.is_empty conn.inflight) then begin
    Sim.Stats.incr "degrade.retried.tcp_rto";
    (* Reno reaction. *)
    if conn.eng.cc then begin
      conn.ssthresh <- max ((conn.snd_nxt - conn.snd_una) / 2) (2 * mss);
      conn.cwnd <- 2 * mss
    end;
    (* The retransmit is a copy of the segment, slices read again. *)
    let seg = Queue.peek conn.inflight in
    charge_tx conn.eng;
    emit conn ~seq:seg.Packet.seq (Packet.flat_payload seg);
    arm_rto conn
  end

(* The SYN or SYN-ACK retransmit: resend every [rto_cycles], and give
   up after [handshake_max_tries]. The chain keeps its handle in
   [rto_event], where reaching Established or a reset cancels it. *)
let arm_handshake conn ~flags ~stat ~give_up =
  let rec rexmit n () =
    conn.rto_event <- None;
    if n >= handshake_max_tries then give_up ()
    else begin
      Sim.Stats.incr stat;
      emit conn ~flags Bytes.empty;
      conn.rto_event <- Some (Sim.Events.schedule_after rto_cycles (rexmit (n + 1)))
    end
  in
  conn.rto_event <- Some (Sim.Events.schedule_after rto_cycles (rexmit 1))

let try_transmit conn =
  if conn.state = Established || conn.state = Syn_rcvd then begin
    let was_full = Fifo.length conn.txq >= sndbuf_cap in
    let continue = ref true in
    while !continue do
      let w = effective_window conn in
      let avail = Fifo.length conn.txq in
      if w <= 0 || avail = 0 then continue := false
      else if
        avail < mss
        && (not (Queue.is_empty conn.inflight))
        && (not conn.nodelay)
        && not conn.local_closed
      then
        (* Nagle / autocork: hold a sub-MSS tail while data is in flight,
           so small-write streams coalesce into full segments. *)
        continue := false
      else begin
        (* Every stack hands down super-segments: the guest and host NICs
           split them into MSS wire frames at ring time (TSO), loopback
           delivers them whole. *)
        let seg = min Packet.gso_max_size (min w avail) in
        let payload, slices = Fifo.pop conn.txq seg in
        (* Sub-MSS segments were already charged at the send(2) call. *)
        if seg >= mss then charge_tx conn.eng;
        (* PSH on the segment that empties the send queue: the receiver's
           GRO engine flushes its merge on it, so the tail of a burst is
           delivered immediately instead of waiting for the NAPI idle
           poll. Retransmits (from [inflight]) go out without it, which
           is harmless — a flag discontinuity also flushes. *)
        let flags =
          if Fifo.length conn.txq = 0 then Packet.ack_flag lor Packet.psh
          else Packet.ack_flag
        in
        let p = segment conn ~flags ~seq:conn.snd_nxt ~slices payload in
        Netstack.send conn.eng.stack p;
        Queue.push p conn.inflight;
        conn.snd_nxt <- conn.snd_nxt + seg
      end
    done;
    arm_rto conn;
    (* Space may have opened up for blocked senders. *)
    if Fifo.length conn.txq < sndbuf_cap then begin
      ignore (Ostd.Wait_queue.wake_all conn.snd_wq);
      (* A full→space transition is the only genuine POLLOUT edge —
         publishing on every ACK would hand ET consumers events with
         no state change behind them. *)
      if was_full then Pollable.publish conn.pollable Pollable.pollout
    end
  end

let maybe_send_fin conn =
  if
    conn.local_closed
    && Fifo.length conn.txq = 0
    && Queue.is_empty conn.inflight
    && conn.state = Established
  then begin
    emit conn ~flags:(Packet.fin lor Packet.ack_flag) Bytes.empty;
    conn.state <- Closed;
    forget_if_done conn
  end

(* --- Receive path --- *)

let on_ack conn (p : Packet.t) =
  if p.Packet.ack > conn.snd_una then begin
    let acked = p.Packet.ack - conn.snd_una in
    conn.snd_una <- p.Packet.ack;
    (* Drop fully-acked segments. *)
    let continue = ref true in
    while !continue && not (Queue.is_empty conn.inflight) do
      let seg = Queue.peek conn.inflight in
      if seg.Packet.seq + seg.Packet.len <= conn.snd_una then ignore (Queue.pop conn.inflight)
      else continue := false
    done;
    if not (Queue.is_empty conn.pinned) then
      unpin_upto conn
        (if Queue.is_empty conn.inflight then conn.snd_nxt
         else (Queue.peek conn.inflight).Packet.seq);
    (* Restart the retransmission timer on forward progress. *)
    stop_rto conn;
    (* Byte-counting congestion control (RFC 3465): credit the bytes the
       ACK covers, not the ACK's arrival. A GRO receiver acknowledges
       once per coalesced super-segment — up to 45 MSS per ACK — and a
       per-ACK increment would ramp cwnd ~20x slower behind such a
       receiver, stalling the sender on its own congestion window. For
       sub-MSS ACKs (ping-pong, delayed-ACK-off) the two rules agree. *)
    if conn.eng.cc then
      if conn.cwnd < conn.ssthresh then conn.cwnd <- conn.cwnd + acked
      else conn.cwnd <- conn.cwnd + max 1 (acked * mss / conn.cwnd)
  end;
  conn.peer_win <- p.Packet.win;
  try_transmit conn;
  maybe_send_fin conn;
  ignore (Ostd.Wait_queue.wake_all conn.snd_wq)

let on_data conn (p : Packet.t) =
  let len = p.Packet.len in
  if len > 0 then begin
    if p.Packet.seq = conn.rcv_nxt && free_window conn >= len then begin
      charge_rx conn.eng len;
      Fifo.push ~owned:true conn.rcvbuf p.Packet.payload p.Packet.off len;
      conn.rcv_nxt <- conn.rcv_nxt + len;
      ack_after_data conn len;
      ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
      Pollable.publish conn.pollable Pollable.pollin
    end
    else begin
      (* Duplicate or out-of-window: re-ack so the sender resynchronises. *)
      if p.Packet.seq = conn.rcv_nxt then Sim.Stats.incr "tcp.drop_nospace"
      else if p.Packet.seq < conn.rcv_nxt then Sim.Stats.incr "tcp.drop_dup"
      else Sim.Stats.incr "tcp.drop_ooo";
      send_pure_ack conn
    end
  end

let engine_rx eng (p : Packet.t) =
  match find_conn eng ~lport:p.Packet.dst_port ~rip:p.Packet.src_ip ~rport:p.Packet.src_port with
  | conn :: _ ->
    if p.Packet.flags land Packet.rst <> 0 then reset conn
    else begin
      (match conn.state with
      | Syn_sent when p.Packet.flags land Packet.syn <> 0 ->
        conn.state <- Established;
        stop_rto conn;
        send_pure_ack conn;
        ignore (Ostd.Wait_queue.wake_all conn.conn_wq);
        Pollable.publish conn.pollable Pollable.pollout
      | Syn_rcvd when p.Packet.flags land Packet.ack_flag <> 0 -> (
        conn.state <- Established;
        stop_rto conn;
        match Hashtbl.find_opt eng.listeners conn.lport with
        | Some l ->
          Queue.push conn l.backlog;
          ignore (Ostd.Wait_queue.wake_one l.accept_wq);
          Pollable.publish l.l_pollable Pollable.pollin
        | None -> ())
      | _ -> ());
      if conn.state = Established || conn.state = Closed then begin
        if p.Packet.flags land Packet.ack_flag <> 0 then on_ack conn p;
        on_data conn p;
        if p.Packet.flags land Packet.fin <> 0 then begin
          conn.peer_fin <- true;
          conn.rcv_nxt <- conn.rcv_nxt + 1;
          send_pure_ack conn;
          ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
          Pollable.publish conn.pollable
            (Pollable.pollin lor Pollable.pollhup lor Pollable.pollrdhup);
          forget_if_done conn
        end
      end
    end
  | [] -> (
    (* No connection: a SYN may create one via a listener. *)
    if p.Packet.flags land Packet.syn <> 0 then begin
      match Hashtbl.find_opt eng.listeners p.Packet.dst_port with
      | Some l when Queue.length l.backlog >= l.l_backlog_max ->
        (* listen(2) backlog full: drop the SYN on the floor. The
           client's handshake retransmit retries after an RTO, by which
           time accept(2) has usually drained the queue — exactly how
           Linux sheds an accept storm without RSTing it. *)
        Sim.Stats.incr "tcp.listen_overflow"
      | Some _ ->
        let conn =
          make_conn eng ~lip:p.Packet.dst_ip ~lport:p.Packet.dst_port ~rip:p.Packet.src_ip
            ~rport:p.Packet.src_port ~state:Syn_rcvd
        in
        bind_conn eng conn;
        emit conn ~flags:(Packet.syn lor Packet.ack_flag) Bytes.empty;
        arm_handshake conn ~flags:(Packet.syn lor Packet.ack_flag)
          ~stat:"degrade.retried.tcp_synack" ~give_up:(fun () -> forget_key eng conn)
      | None ->
        (* Connection refused. *)
        Netstack.send eng.stack
          (Packet.make ~src_ip:p.Packet.dst_ip ~dst_ip:p.Packet.src_ip ~proto:Packet.Tcp
             ~src_port:p.Packet.dst_port ~dst_port:p.Packet.src_port ~flags:Packet.rst
             Bytes.empty)
    end
    else if p.Packet.flags land Packet.rst = 0 then
      Netstack.send eng.stack
        (Packet.make ~src_ip:p.Packet.dst_ip ~dst_ip:p.Packet.src_ip ~proto:Packet.Tcp
           ~src_port:p.Packet.dst_port ~dst_port:p.Packet.src_port ~flags:Packet.rst
           Bytes.empty))

(* The driver exhausted its retries (or quarantined the buffer) for an
   outgoing frame. The byte stream is repaired by the normal RTO
   machinery; here we only count the soft error: [tcp.tx_soft_err]
   when a connection owns the frame, [net.tx_err_unclaimed] when none
   does. *)
let on_tx_error eng (p : Packet.t) =
  match p.Packet.proto with
  | Packet.Tcp -> (
    match find_conn eng ~lport:p.Packet.src_port ~rip:p.Packet.dst_ip ~rport:p.Packet.dst_port with
    | _ :: _ -> Sim.Stats.incr "tcp.tx_soft_err"
    | [] -> Sim.Stats.incr "net.tx_err_unclaimed")
  | Packet.Udp -> Sim.Stats.incr "net.tx_err_unclaimed"

let create_engine stack ~cc =
  let eng =
    {
      stack;
      cc;
      conns = Array.make 64 [];
      nconns = 0;
      listeners = Hashtbl.create 8;
      next_ephemeral = 33000;
    }
  in
  Netstack.set_tcp_rx stack (engine_rx eng);
  Netstack.set_tx_err stack (on_tx_error eng);
  eng

(* --- Public API --- *)

let listen ?(backlog = 128) eng ~port =
  if Hashtbl.mem eng.listeners port then Error Errno.eaddrinuse
  else begin
    let l =
      {
        l_eng = eng;
        l_port = port;
        backlog = Queue.create ();
        l_backlog_max = max 1 backlog;
        accept_wq = Ostd.Wait_queue.create ();
        l_pollable = Pollable.create (fun () -> 0);
      }
    in
    Pollable.set_level l.l_pollable (fun () ->
        if Queue.is_empty l.backlog then 0 else Pollable.pollin);
    Hashtbl.replace eng.listeners port l;
    Ok l
  end

let pending l = Queue.length l.backlog

let accept l =
  Ostd.Wait_queue.sleep_until l.accept_wq (fun () -> not (Queue.is_empty l.backlog));
  Queue.pop l.backlog

(* Non-blocking accept: the O_NONBLOCK / accept4 path. *)
let accept_opt l = if Queue.is_empty l.backlog then None else Some (Queue.pop l.backlog)

let connect eng ~dst_ip ~dst_port =
  Netstack.charge eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_small_write;
  let lport = eng.next_ephemeral in
  eng.next_ephemeral <- eng.next_ephemeral + 1;
  let lip =
    if dst_ip = Netstack.loopback_ip || dst_ip = Netstack.ip eng.stack then dst_ip
    else Netstack.ip eng.stack
  in
  let conn = make_conn eng ~lip ~lport ~rip:dst_ip ~rport:dst_port ~state:Syn_sent in
  bind_conn eng conn;
  emit conn ~flags:Packet.syn Bytes.empty;
  arm_handshake conn ~flags:Packet.syn ~stat:"degrade.retried.tcp_syn" ~give_up:(fun () ->
      conn.timed_out <- true;
      ignore (Ostd.Wait_queue.wake_all conn.conn_wq));
  Ostd.Wait_queue.sleep_until conn.conn_wq (fun () ->
      conn.state <> Syn_sent || conn.reset || conn.timed_out);
  if conn.reset || conn.timed_out then begin
    forget_key eng conn;
    Error (if conn.reset then Errno.econnrefused else Errno.etimedout)
  end
  else Ok conn

let send ?(nonblock = false) conn ~buf ~pos ~len =
  if conn.reset || conn.local_closed then Error Errno.epipe
  else if nonblock && Fifo.length conn.txq >= sndbuf_cap then
    (* O_NONBLOCK with a full send buffer: EAGAIN before charging the
       small-write cost — the caller parks on POLLOUT instead. *)
    Error Errno.eagain
  else begin
    (* The send-path cost of a small write (socket lock, segmentation
       bookkeeping); full segments pay per-segment costs at transmit. *)
    if len < mss then
      Netstack.charge conn.eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_small_write;
    let written = ref 0 in
    let err = ref None in
    while
      !written < len && !err = None
      && not (nonblock && Fifo.length conn.txq >= sndbuf_cap)
    do
      Ostd.Wait_queue.sleep_until conn.snd_wq (fun () ->
          Fifo.length conn.txq < sndbuf_cap || conn.reset);
      if conn.reset then err := Some Errno.epipe
      else begin
        let n = min (sndbuf_cap - Fifo.length conn.txq) (len - !written) in
        Fifo.push conn.txq buf (pos + !written) n;
        written := !written + n;
        try_transmit conn
      end
    done;
    match !err with Some e when !written = 0 -> Error e | _ -> Ok !written
  end

let send_view conn view =
  let len = Page_cache.view_length view in
  let written = ref 0 in
  if not (conn.reset || conn.local_closed) then begin
    if len < mss then
      Netstack.charge conn.eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_small_write;
    while !written < len && not conn.reset do
      Ostd.Wait_queue.sleep_until conn.snd_wq (fun () ->
          Fifo.length conn.txq < sndbuf_cap || conn.reset);
      if not conn.reset then begin
        let n = min (sndbuf_cap - Fifo.length conn.txq) (len - !written) in
        Queue.push
          { first = conn.snd_nxt + Fifo.length conn.txq - !written; view; stop = !written + n }
          conn.pinned;
        Fifo.push_view conn.txq view !written n;
        written := !written + n;
        try_transmit conn
      end
    done
  end;
  (* Once a range is queued, the connection drops the view's pins, a
     reset included; until then they are ours to drop. *)
  if !written = 0 then begin
    Page_cache.unpin view ~upto:len;
    Error Errno.epipe
  end
  else Ok !written

let recv ?(nonblock = false) conn ~buf ~pos ~len =
  if conn.reset then Error Errno.econnreset
  else if nonblock && Fifo.length conn.rcvbuf = 0 && not (conn.peer_fin || conn.rd_shut) then
    Error Errno.eagain
  else begin
    (* A receiver that must sleep pays the full wakeup path; streaming
       receivers find data ready and skip it. *)
    if Fifo.length conn.rcvbuf = 0 && not (conn.peer_fin || conn.rd_shut || conn.reset) then
      Netstack.charge conn.eng.stack (Sim.Cost.c ()).Sim.Profile.net_wake;
    Ostd.Wait_queue.sleep_until conn.rcv_wq (fun () ->
        Fifo.length conn.rcvbuf > 0 || conn.peer_fin || conn.rd_shut || conn.reset);
    if conn.reset then Error Errno.econnreset
    else if Fifo.length conn.rcvbuf = 0 then Ok 0 (* peer closed *)
    else if len = 0 then Error Errno.efault
    else begin
      let was_starved = free_window conn < mss in
      let n = Fifo.pop_into conn.rcvbuf buf pos len in
      if was_starved && free_window conn >= mss then send_pure_ack conn;
      Ok n
    end
  end

let shutdown_rd conn =
  conn.rd_shut <- true;
  ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
  Pollable.publish conn.pollable Pollable.pollin

let close conn =
  if not conn.local_closed then begin
    conn.local_closed <- true;
    maybe_send_fin conn;
    forget_if_done conn
  end

(* SO_LINGER-0-style abortive close: fire an RST at the peer and tear
   the local state down immediately. The chaos suite uses this to
   inject resets mid-churn; the peer's readiness layer must surface
   them as EPOLLERR|EPOLLHUP. *)
let abort conn =
  if not conn.reset then begin
    emit conn ~flags:Packet.rst Bytes.empty;
    conn.local_closed <- true;
    reset conn
  end

let pollable conn = conn.pollable

let listener_pollable l = l.l_pollable

let set_nodelay conn = conn.nodelay <- true

let peer_of conn = (conn.rip, conn.rport)

let conn_count eng = eng.nconns
