(* ktrace: a deterministic, bounded ring buffer of trace records, in the
   spirit of ftrace's per-category tracepoints.

   Every record carries the virtual clock, the name of kprof's current
   context, the span live on it, a tracepoint and that point's raw
   fields. Probe programs attach to the same points. Emission charges no virtual cycles, so enabling tracing never
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

(* --- Tracepoints ---

   One point per event. A point names up to [max_fields] int fields;
   the ring stores them when the point's category is on, and probe
   programs (lib/kprobe) attached to the point read them from its one
   preallocated buffer. Every point but the [Probe] ones kprobe makes at
   load is listed, in declaration order, so consumers attach by name. *)

type fields = { a : int; b : int; c : int; d : int; e : int; f : int; s : string }

let max_fields = 6

type point = {
  pcat : category;
  pbit : int;
  pname : string;
  full : string; (* "<category>:<name>" *)
  pfields : string array;
  fmt : fields -> string;
  buf : int array; (* the fields as consumers read them *)
  mutable hooks : (string * (int array -> unit)) list; (* attach order *)
}

let declared : point list ref = ref [] (* declaration order *)

let point cat name pfields fmt =
  if Array.length pfields > max_fields then invalid_arg "Trace.point: more than six fields";
  let full = category_name cat ^ ":" ^ name and buf = Array.make max_fields 0 in
  let pt = { pcat = cat; pbit = bit cat; pname = name; full; pfields; fmt; buf; hooks = [] } in
  if cat <> Probe then declared := !declared @ [ pt ];
  pt

let name pt = pt.full

let field_names pt = pt.pfields

let points () = !declared

let find n = List.filter (fun pt -> String.equal pt.full n) !declared

let attach pt ~name f = pt.hooks <- pt.hooks @ [ (name, f) ]

let detach pt ~name = pt.hooks <- List.filter (fun (n, _) -> n <> name) pt.hooks

let hi32 v = Int64.to_int (Int64.shift_right v 32)

let lo32 v = Int64.to_int (Int64.logand v 0xffffffffL)

let join64 hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* --- The ring ---

   Structure of arrays, one slot per record: [ints] holds [stride]
   native ints per slot (cycles, span id, six fields), and the task
   name, string field and point are shared pointers to values that
   already exist. Empty until the first enable. *)

let default_capacity = 8192

let stride = 8

let no_point = point Probe "" [||] (fun _ -> "")

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

let live pt = !mask land pt.pbit <> 0 || pt.hooks != []

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
let store pt s a b c d e f =
  let i = ring.head in
  let o = i * stride in
  let ints = ring.ints in
  ints.(o) <- Time.now ();
  ints.(o + 1) <- Span.current ();
  ints.(o + 2) <- a;
  ints.(o + 3) <- b;
  ints.(o + 4) <- c;
  ints.(o + 5) <- d;
  ints.(o + 6) <- e;
  ints.(o + 7) <- f;
  ring.tasks.(i) <- Prof.current_name ();
  ring.strs.(i) <- s;
  ring.pts.(i) <- pt;
  ring.head <- (if i + 1 = ring.cap then 0 else i + 1);
  if ring.len < ring.cap then ring.len <- ring.len + 1
  else ring.dropped <- ring.dropped + 1 (* overwrote the oldest record *);
  ring.total <- ring.total + 1

let rec run_hooks buf = function [] -> () | (_, h) :: tl -> h buf; run_hooks buf tl

(* Store first, then run the consumers: a record a consumer emits
   (a probe's [emit]) lands after the event that fired it. *)
let emit_s pt s a b c d e f =
  if !mask land pt.pbit <> 0 then store pt s a b c d e f;
  match pt.hooks with
  | [] -> ()
  | hooks ->
    let buf = pt.buf in
    buf.(0) <- a;
    buf.(1) <- b;
    buf.(2) <- c;
    buf.(3) <- d;
    buf.(4) <- e;
    buf.(5) <- f;
    run_hooks buf hooks

let emit0 pt = emit_s pt "" 0 0 0 0 0 0

let emit1 pt a = emit_s pt "" a 0 0 0 0 0

let emit2 pt a b = emit_s pt "" a b 0 0 0 0

let emit3 pt a b c = emit_s pt "" a b c 0 0 0

let emit6 pt a b c d e f = emit_s pt "" a b c d e f

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
      {
        a = ints.(o + 2);
        b = ints.(o + 3);
        c = ints.(o + 4);
        d = ints.(o + 5);
        e = ints.(o + 6);
        f = ints.(o + 7);
        s = ring.strs.(i);
      }
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
