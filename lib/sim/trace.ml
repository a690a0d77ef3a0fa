(* ktrace: a deterministic, bounded ring buffer of structured trace
   records, in the spirit of ftrace's per-category tracepoints.

   Every record carries the virtual clock, the name of kprof's current
   context, a category, an event name, and a rendered argument string.
   Emission charges no virtual cycles, so enabling tracing never perturbs a
   benchmark number, and all inputs (clock, task names, event order)
   are deterministic, so the same seed yields a byte-identical trace.

   Categories are default-off: a disabled category's [emit] returns
   before building the record (the args closure is never called), so
   the ring stays empty and the run is bit-for-bit what it would have
   been without ktrace. *)

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
  cycles : int64;
  task : string;
  cat : category;
  name : string;
  args : string;
}

(* --- Enable mask: all categories off by default --- *)

let mask = ref 0

let mask_value () = !mask

let set_mask m =
  let valid = List.fold_left (fun a c -> a lor bit c) 0 all_categories in
  mask := m land valid

let enabled cat = !mask land bit cat <> 0

let enable cat = mask := !mask lor bit cat

let disable cat = mask := !mask land lnot (bit cat)

let enable_all () = List.iter enable all_categories

let disable_all () = mask := 0

let enabled_categories () = List.filter enabled all_categories

(* --- The ring --- *)

let default_capacity = 8192

let dummy = { cycles = 0L; task = ""; cat = Syscall; name = ""; args = "" }

type ring = {
  mutable buf : record array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable total : int;
}

let ring =
  { buf = Array.make default_capacity dummy; head = 0; len = 0; dropped = 0; total = 0 }

let capacity () = Array.length ring.buf

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  ring.buf <- Array.make n dummy;
  ring.head <- 0;
  ring.len <- 0

let clear () =
  Array.fill ring.buf 0 (Array.length ring.buf) dummy;
  ring.head <- 0;
  ring.len <- 0;
  ring.dropped <- 0;
  ring.total <- 0

let reset () =
  disable_all ();
  if Array.length ring.buf <> default_capacity then ring.buf <- Array.make default_capacity dummy;
  clear ()

let push r =
  let cap = Array.length ring.buf in
  ring.buf.(ring.head) <- r;
  ring.head <- (ring.head + 1) mod cap;
  if ring.len < cap then ring.len <- ring.len + 1
  else ring.dropped <- ring.dropped + 1 (* overwrote the oldest record *);
  ring.total <- ring.total + 1

(* A record names kprof's current context (comm/tid, or idle/0), and
   when a span is live on the emitting task its id is appended to the
   args so [trace run] output can be grepped by request. *)
let emit cat name args =
  if enabled cat then begin
    let rendered = args () in
    let rendered =
      match Span.current () with
      | 0 -> rendered
      | sp when rendered = "" -> "span=" ^ string_of_int sp
      | sp -> rendered ^ " span=" ^ string_of_int sp
    in
    push { cycles = Clock.now (); task = Prof.current_name (); cat; name; args = rendered }
  end

let dropped () = ring.dropped

let total () = ring.total

let length () = ring.len

let records () =
  let cap = Array.length ring.buf in
  let first = (ring.head - ring.len + cap) mod cap in
  List.init ring.len (fun i -> ring.buf.((first + i) mod cap))

(* --- ftrace-style text renderer --- *)

let render_record r =
  Printf.sprintf "%-16s [%12Ld] %s:%s%s" r.task r.cycles (category_name r.cat) r.name
    (if r.args = "" then "" else " " ^ r.args)

let render ?limit () =
  let rs = records () in
  let rs =
    match limit with
    | Some n when n < List.length rs ->
      List.filteri (fun i _ -> i >= List.length rs - n) rs
    | Some _ | None -> rs
  in
  String.concat "\n" (List.map render_record rs)

(* --- Probe attach plane ---------------------------------------------

   Structured tracepoints that verified probe programs (lib/kprobe) can
   attach to. Unlike [emit], which renders a display string, [fire]
   hands attached consumers a raw [int64 array] of context fields whose
   layout is fixed per attach point (see [attach_fields]); the kprobe
   verifier whitelists field accesses against exactly these layouts.

   Like the ktrace ring, the plane is free in virtual time: consumers
   charge no cycles, and when nothing is attached [fire] is a single
   bitmask test — the fields thunk is never evaluated, so a detached
   run is bit-for-bit identical to a build without the tracepoint. *)

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

let n_attach_points = List.length all_attach_points

(* Consumers, keyed by program name in attach order (deterministic
   execution order = load order). [live] mirrors the hook table as a
   bitmask so the detached fast path is one [land]. *)
let hooks : (string * (int64 array -> unit)) list array = Array.make n_attach_points []

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

let attached ap = hooks.(attach_index ap) <> []

let any_attached () = !live <> 0

let fire ap fields =
  if !live land (1 lsl attach_index ap) <> 0 then begin
    let ctx = fields () in
    List.iter (fun (_, f) -> f ctx) hooks.(attach_index ap)
  end
