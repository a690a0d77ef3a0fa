(* ktrace: a deterministic, bounded ring buffer of trace records, in the
   spirit of ftrace's per-category tracepoints.

   Every record carries the virtual clock, the name of kprof's current
   context, the span live on it, a tracepoint and that point's raw
   fields. Emission charges no virtual cycles, so enabling tracing never
   perturbs a benchmark number, and all inputs (clock, task names, event
   order) are deterministic, so the same seed yields a byte-identical
   trace.

   Record, don't render: like ftrace, a record stores raw values into
   preallocated ring slots and allocates nothing. A point's renderer
   builds the args string only when someone reads the ring, and most
   records are overwritten before anyone does. Categories are
   default-off, and the ring's storage is made on the first enable, so a
   run that never traces carries none. *)

type category =
  | Syscall
  | Sched
  | Irq
  | Softirq
  | Pgfault
  | Blk
  | Net
  | Dma
  | Lock
  | Chaos
  | Probe

let all_categories =
  [ Syscall; Sched; Irq; Softirq; Pgfault; Blk; Net; Dma; Lock; Chaos; Probe ]

let bit = function
  | Syscall -> 1
  | Sched -> 2
  | Irq -> 4
  | Softirq -> 8
  | Pgfault -> 16
  | Blk -> 32
  | Net -> 64
  | Dma -> 128
  | Lock -> 256
  | Chaos -> 512
  | Probe -> 1024

let category_name = function
  | Syscall -> "syscall"
  | Sched -> "sched"
  | Irq -> "irq"
  | Softirq -> "softirq"
  | Pgfault -> "pgfault"
  | Blk -> "blk"
  | Net -> "net"
  | Dma -> "dma"
  | Lock -> "lock"
  | Chaos -> "chaos"
  | Probe -> "probe"

let category_of_string = function
  | "syscall" -> Some Syscall
  | "sched" -> Some Sched
  | "irq" -> Some Irq
  | "softirq" -> Some Softirq
  | "pgfault" | "fault" -> Some Pgfault
  | "blk" | "block" -> Some Blk
  | "net" -> Some Net
  | "dma" -> Some Dma
  | "lock" -> Some Lock
  | "chaos" -> Some Chaos
  | "probe" | "kprobe" -> Some Probe
  | _ -> None

type record = {
  cycles : Time.t;
  task : string;
  cat : category;
  name : string;
  args : string;
}

(* --- Tracepoints --- *)

type fields = { a : int; b : int; c : int; d : int; s : string }

type point = { pcat : category; pbit : int; pname : string; fmt : fields -> string }

let point cat name fmt = { pcat = cat; pbit = bit cat; pname = name; fmt }

let hi32 v = Int64.to_int (Int64.shift_right v 32)

let lo32 v = Int64.to_int (Int64.logand v 0xffffffffL)

let join64 hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* --- The ring ---

   Structure of arrays, one slot per record: [ints] holds [stride]
   native ints per slot (cycles, span id, four fields), and the task
   name, string field and point are shared pointers to values that
   already exist. Empty until the first enable. *)

let default_capacity = 8192

let stride = 6

let no_point = point Syscall "" (fun _ -> "")

type ring = {
  mutable cap : int;
  mutable ints : int array;
  mutable tasks : string array;
  mutable strs : string array;
  mutable pts : point array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable total : int;
}

let ring =
  {
    cap = default_capacity;
    ints = [||];
    tasks = [||];
    strs = [||];
    pts = [||];
    head = 0;
    len = 0;
    dropped = 0;
    total = 0;
  }

let allocated () = Array.length ring.pts > 0

let make_storage () =
  ring.ints <- Array.make (ring.cap * stride) 0;
  ring.tasks <- Array.make ring.cap "";
  ring.strs <- Array.make ring.cap "";
  ring.pts <- Array.make ring.cap no_point;
  ring.head <- 0;
  ring.len <- 0

(* --- Enable mask: all categories off by default --- *)

let mask = ref 0

let mask_value () = !mask

let set_mask m =
  let valid = List.fold_left (fun a c -> a lor bit c) 0 all_categories in
  mask := m land valid;
  if !mask <> 0 && not (allocated ()) then make_storage ()

let enabled cat = !mask land bit cat <> 0

let on pt = !mask land pt.pbit <> 0

let enable cat = set_mask (!mask lor bit cat)

let disable cat = mask := !mask land lnot (bit cat)

let enable_all () = List.iter enable all_categories

let disable_all () = mask := 0

let enabled_categories () = List.filter enabled all_categories

let capacity () = ring.cap

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  ring.cap <- n;
  if allocated () then make_storage ()
  else begin
    ring.head <- 0;
    ring.len <- 0
  end

let clear () =
  ring.head <- 0;
  ring.len <- 0;
  ring.dropped <- 0;
  ring.total <- 0

let reset () =
  disable_all ();
  ring.cap <- default_capacity;
  ring.ints <- [||];
  ring.tasks <- [||];
  ring.strs <- [||];
  ring.pts <- [||];
  clear ()

(* A record names kprof's current context (comm/tid, or idle/0) and the
   span live on the emitting task, so [trace run] output can be grepped
   by request. *)
let store pt s a b c d =
  let i = ring.head in
  let o = i * stride in
  let ints = ring.ints in
  ints.(o) <- Time.now ();
  ints.(o + 1) <- Span.current ();
  ints.(o + 2) <- a;
  ints.(o + 3) <- b;
  ints.(o + 4) <- c;
  ints.(o + 5) <- d;
  ring.tasks.(i) <- Prof.current_name ();
  ring.strs.(i) <- s;
  ring.pts.(i) <- pt;
  ring.head <- (if i + 1 = ring.cap then 0 else i + 1);
  if ring.len < ring.cap then ring.len <- ring.len + 1
  else ring.dropped <- ring.dropped + 1 (* overwrote the oldest record *);
  ring.total <- ring.total + 1

let emit_s pt s a b c d = if on pt then store pt s a b c d

let emit0 pt = if on pt then store pt "" 0 0 0 0

let emit1 pt a = if on pt then store pt "" a 0 0 0

let emit2 pt a b = if on pt then store pt "" a b 0 0

let emit3 pt a b c = if on pt then store pt "" a b c 0

let emit4 pt a b c d = if on pt then store pt "" a b c d

let dropped () = ring.dropped

let total () = ring.total

let length () = ring.len

(* --- Reading: records are formatted here, not when emitted --- *)

(* The slot of the [k]-th oldest buffered record. *)
let slot k = (ring.head - ring.len + k + ring.cap) mod ring.cap

let record_at i =
  let o = i * stride in
  let ints = ring.ints in
  let pt = ring.pts.(i) in
  let args =
    pt.fmt
      { a = ints.(o + 2); b = ints.(o + 3); c = ints.(o + 4); d = ints.(o + 5); s = ring.strs.(i) }
  in
  let args =
    match ints.(o + 1) with
    | 0 -> args
    | sp when args = "" -> "span=" ^ string_of_int sp
    | sp -> args ^ " span=" ^ string_of_int sp
  in
  { cycles = ints.(o); task = ring.tasks.(i); cat = pt.pcat; name = pt.pname; args }

let records () = List.init ring.len (fun k -> record_at (slot k))

(* --- ftrace-style text renderer --- *)

let render_record r =
  Printf.sprintf "%-16s [%12d] %s:%s%s" r.task r.cycles (category_name r.cat) r.name
    (if r.args = "" then "" else " " ^ r.args)

let render ?limit () =
  let n = match limit with Some n when n < ring.len -> max n 0 | Some _ | None -> ring.len in
  let b = Buffer.create (n * 96) in
  for k = ring.len - n to ring.len - 1 do
    if k > ring.len - n then Buffer.add_char b '\n';
    Buffer.add_string b (render_record (record_at (slot k)))
  done;
  Buffer.contents b

(* --- Probe attach plane ---------------------------------------------

   Structured tracepoints that verified probe programs (lib/kprobe) can
   attach to. Unlike the ktrace points above, whose records the ring
   renders for display, a site tests [armed], writes its fields into
   the point's preallocated, unboxed context buffer and calls [run],
   which allocates nothing. The buffer's layout is fixed per attach
   point (see [attach_fields]); the kprobe verifier whitelists field
   accesses against exactly these layouts.

   Like the ktrace ring, the plane is free in virtual time: consumers
   charge no cycles, and when nothing is attached a site is a single
   bitmask test that builds nothing, so a detached run is bit-for-bit
   identical to a build without the tracepoint. *)

type attach_point =
  | P_syscall_enter
  | P_syscall_exit
  | P_blk_issue
  | P_blk_complete
  | P_net_tx
  | P_net_rx
  | P_sched_switch
  | P_sched_wakeup
  | P_irq_entry
  | P_jbd_commit
  | P_chaos_inject

let all_attach_points =
  [ P_syscall_enter; P_syscall_exit; P_blk_issue; P_blk_complete; P_net_tx;
    P_net_rx; P_sched_switch; P_sched_wakeup; P_irq_entry; P_jbd_commit;
    P_chaos_inject ]

let attach_index = function
  | P_syscall_enter -> 0
  | P_syscall_exit -> 1
  | P_blk_issue -> 2
  | P_blk_complete -> 3
  | P_net_tx -> 4
  | P_net_rx -> 5
  | P_sched_switch -> 6
  | P_sched_wakeup -> 7
  | P_irq_entry -> 8
  | P_jbd_commit -> 9
  | P_chaos_inject -> 10

let attach_name = function
  | P_syscall_enter -> "syscall_enter"
  | P_syscall_exit -> "syscall_exit"
  | P_blk_issue -> "blk_issue"
  | P_blk_complete -> "blk_complete"
  | P_net_tx -> "net_tx"
  | P_net_rx -> "net_rx"
  | P_sched_switch -> "sched_switch"
  | P_sched_wakeup -> "sched_wakeup"
  | P_irq_entry -> "irq_entry"
  | P_jbd_commit -> "jbd_commit"
  | P_chaos_inject -> "chaos_inject"

let attach_of_string s =
  List.find_opt (fun ap -> attach_name ap = s) all_attach_points

(* Whitelisted context fields per attach point. The array index is the
   slot the firing site writes; the verifier resolves names to slots at
   load time, so programs can only read fields that exist here. *)
let attach_fields = function
  | P_syscall_enter -> [| "nr"; "pid"; "arg0" |]
  | P_syscall_exit -> [| "nr"; "ret"; "lat_ns"; "pid"; "arg0"; "journal_commit" |]
  | P_blk_issue -> [| "sector"; "len"; "write" |]
  | P_blk_complete -> [| "sector"; "len"; "write"; "lat_ns"; "status" |]
  | P_net_tx -> [| "bytes"; "nseg" |]
  | P_net_rx -> [| "bytes"; "nseg" |]
  | P_sched_switch -> [| "prev_tid"; "next_tid"; "now_ns"; "max_wait_ns" |]
  | P_sched_wakeup -> [| "tid"; "now_ns"; "max_wait_ns" |]
  | P_irq_entry -> [| "vector"; "now_ns" |]
  | P_jbd_commit -> [| "seq"; "nblocks" |]
  | P_chaos_inject -> [| "site_id"; "count" |]

type ctx = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ctxs =
  let make ap = Bigarray.(Array1.init int64 c_layout (Array.length (attach_fields ap)) (fun _ -> 0L)) in
  Array.of_list (List.map make all_attach_points)

let ctx ap = ctxs.(attach_index ap)

(* Consumers, keyed by program name in attach order (deterministic
   execution order = load order). [live] mirrors the hook table as a
   bitmask so the detached fast path is one [land]. *)
let hooks : (string * (ctx -> unit)) list array = Array.make (Array.length ctxs) []

let live = ref 0

let attach ap ~name f =
  let i = attach_index ap in
  hooks.(i) <- hooks.(i) @ [ (name, f) ];
  live := !live lor (1 lsl i)

let detach ap ~name =
  let i = attach_index ap in
  hooks.(i) <- List.filter (fun (n, _) -> n <> name) hooks.(i);
  if hooks.(i) = [] then live := !live land lnot (1 lsl i)

let detach_name name = List.iter (fun ap -> detach ap ~name) all_attach_points

let any_attached () = !live <> 0

let armed ap = !live land (1 lsl attach_index ap) <> 0

let rec run_hooks c = function [] -> () | (_, f) :: tl -> f c; run_hooks c tl

let run ap =
  let i = attach_index ap in
  run_hooks ctxs.(i) hooks.(i)
