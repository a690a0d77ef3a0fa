(* One round's client-side accounting.

   Every op is timed on the virtual clock from issue to verified
   completion. The first [warmup] issued ops are excluded from latency,
   throughput and goodput; the measured window runs from the issue of
   the first measured op to the completion of the last op of the round,
   and the host-side meters (process CPU time, allocated words) are read
   at exactly those two points. Failures are counted for every op,
   warm-up included, so nothing is masked. *)

type failure =
  | Refused  (** connect refused past the retry budget *)
  | Errno of string  (** a call returned an errno; the call's name *)
  | Status of int  (** an HTTP status other than 200 *)
  | Short  (** the reply ended before the length it announced *)
  | Mismatch  (** a success reply carrying the wrong bytes *)

let failure_name = function
  | Refused -> "refused"
  | Errno call -> "errno." ^ call
  | Status code -> Printf.sprintf "http_%d" code
  | Short -> "short_reply"
  | Mismatch -> "mismatch"

(* A wrong answer under a success status is a correctness break, not
   just a failed op: the run as a whole is then incorrect. *)
let is_wrong_answer = function Mismatch -> true | _ -> false

let wall_ns () = Monotonic_clock.now ()

let host_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Host speed probe. On a shared host the same work takes up to 1.6x
   more CPU time from one second to the next, whatever this process
   does. A fixed unit of work is timed at evenly spaced points inside
   the measured window; its mean time gives the host's speed over the
   window. The work has the memory shape of the simulator's own: stores
   streaming through a 2 MiB buffer, as allocation into the minor heap
   does, and scattered reads over 16 MiB, as the major GC's marking
   does. Of the allocation-free probes tried, this one kept the ratio
   of the program's CPU time to its own steadiest from round to round.
   The probe allocates nothing: its buffers are made once, here, and
   live outside the OCaml heap, so it neither triggers nor pays for the
   collections that the program's allocation owes, and a change in the
   program's GC load does not move it. Its CPU time is taken out of the
   window's total. *)
module Probe_buf = Bigarray.Array1

let probe_stream = Probe_buf.create Bigarray.int Bigarray.c_layout (1 lsl 18)
let probe_wide = Probe_buf.create Bigarray.int Bigarray.c_layout (1 lsl 21)

let () =
  Probe_buf.fill probe_stream 0;
  Probe_buf.fill probe_wide 1

let probe_sink = ref 0

let probe () =
  let t0 = Sys.time () in
  let n = Probe_buf.dim probe_stream and wide_mask = Probe_buf.dim probe_wide - 1 in
  let acc = ref 0 and x = ref 7 in
  for pass = 0 to 1 do
    for i = 0 to n - 1 do
      Probe_buf.unsafe_set probe_stream i (i + pass + !acc);
      if i land 7 = 0 then begin
        x := ((!x * 0x5bd1e995) + i) land max_int;
        acc := !acc + Probe_buf.unsafe_get probe_wide ((!x lxor (!x lsr 29)) land wide_mask)
      end
    done
  done;
  probe_sink := !acc;
  Sys.time () -. t0

let probes_per_window = 24

type ticket = { idx : int; t0 : int64 }

type t = {
  warmup : int;
  total : int;
  lat : float array; (* µs per measured op; infinity for a failed op *)
  mutable issued : int;
  mutable completed : int;
  mutable failed : int;
  mutable wrong : int;
  kinds : (string, int) Hashtbl.t;
  mutable retries : int; (* client-side connect retries *)
  mutable bytes : int; (* verified payload bytes of measured ops *)
  mutable v0 : int64;
  mutable v1 : int64;
  mutable cpu0 : float;
  mutable cpu1 : float;
  mutable words0 : float;
  mutable words1 : float;
  mutable setup0 : float; (* CPU time as set-up starts *)
  mutable setup_cpu : float; (* set-up CPU time, its probes taken out *)
  mutable setup_probe_cpu : float; (* every set-up probe *)
  mutable setup_probe_n : int;
  mutable warm_probe_cpu : float; (* the set-up probes inside set-up *)
  warm_probe_every : int; (* warm-up completions between probes *)
  probe_every : int; (* completions between in-window probes *)
  mutable probe_cpu : float;
  mutable probe_n : int;
  mutable on_open : unit -> unit; (* run as the measured window opens *)
  mutable on_close : unit -> unit; (* run as the last op completes *)
}

let create ~warmup ~total =
  if warmup < 0 || warmup >= total then invalid_arg "Meter.create: warmup must be in [0, total)";
  {
    warmup;
    total;
    lat = Array.make (total - warmup) 0.;
    issued = 0;
    completed = 0;
    failed = 0;
    wrong = 0;
    kinds = Hashtbl.create 8;
    retries = 0;
    bytes = 0;
    v0 = 0L;
    v1 = 0L;
    cpu0 = 0.;
    cpu1 = 0.;
    words0 = 0.;
    words1 = 0.;
    setup0 = 0.;
    setup_cpu = 0.;
    setup_probe_cpu = 0.;
    setup_probe_n = 0;
    warm_probe_cpu = 0.;
    warm_probe_every = max 1 (warmup / 4);
    probe_every = max 1 ((total - warmup) / probes_per_window);
    probe_cpu = 0.;
    probe_n = 0;
    on_open = ignore;
    on_close = ignore;
  }

let exhausted m = m.issued >= m.total

(* Set-up (boot, server start, docroot or preload, warm-up ops) is
   timed in process CPU time, from [start_setup] to the window's
   opening. Its host speed comes from probes taken before it starts,
   during the warm-up ops and as it ends. *)
let setup_probe m =
  let t = probe () in
  m.setup_probe_cpu <- m.setup_probe_cpu +. t;
  m.setup_probe_n <- m.setup_probe_n + 1;
  t

let start_setup m =
  ignore (setup_probe m);
  m.setup0 <- Sys.time ()

(* Issue the next op; [None] once the round's quota is spent. *)
let issue m =
  if exhausted m then None
  else begin
    let idx = m.issued in
    m.issued <- idx + 1;
    let t0 = Sim.Clock.now () in
    if idx = m.warmup then begin
      m.setup_cpu <- Sys.time () -. m.setup0 -. m.warm_probe_cpu;
      ignore (setup_probe m);
      m.on_open ();
      m.cpu0 <- Sys.time ();
      m.words0 <- host_words ();
      m.v0 <- t0
    end;
    Some { idx; t0 }
  end

let complete m tk result =
  (match result with
  | Ok bytes -> if tk.idx >= m.warmup then m.bytes <- m.bytes + bytes
  | Error f ->
    m.failed <- m.failed + 1;
    if is_wrong_answer f then m.wrong <- m.wrong + 1;
    let k = failure_name f in
    Hashtbl.replace m.kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt m.kinds k)));
  if tk.idx >= m.warmup then
    m.lat.(tk.idx - m.warmup) <-
      (match result with
      | Ok _ -> Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) tk.t0)
      | Error _ -> infinity);
  m.completed <- m.completed + 1;
  if m.issued > m.warmup then begin
    if m.completed < m.total && m.completed mod m.probe_every = 0 then begin
      m.probe_cpu <- m.probe_cpu +. probe ();
      m.probe_n <- m.probe_n + 1
    end
  end
  else if m.completed mod m.warm_probe_every = 0 then
    m.warm_probe_cpu <- m.warm_probe_cpu +. setup_probe m;
  if m.completed = m.total then begin
    m.v1 <- Sim.Clock.now ();
    m.cpu1 <- Sys.time ();
    m.words1 <- host_words ();
    m.on_close ()
  end

let finished m = m.completed = m.total

(* Virtual end-to-end results of one round: these repeat exactly for
   the same seed. *)
type virt = {
  ops : int; (* measured ops *)
  tput : float; (* ops per virtual second *)
  goodput : float; (* verified MB per virtual second *)
  p50 : float option; (* virtual µs *)
  p99 : float option;
  deciles : float list; (* p10 .. p90, for reading *)
  n_lat : int;
  attempted : int;
  failed : int;
  wrong : int;
}

let virt m =
  let ops = m.total - m.warmup in
  let secs = Sim.Clock.to_seconds (Int64.sub m.v1 m.v0) in
  let sorted = Pstats.sorted_copy m.lat in
  let pct p =
    if Pstats.reportable ~n:ops p then
      match Pstats.percentile sorted p with Some v when Float.is_finite v -> Some v | _ -> None
    else None
  in
  {
    ops;
    tput = Pstats.per ~base:secs (float_of_int ops);
    goodput = Pstats.per ~base:secs (float_of_int m.bytes /. 1e6);
    p50 = pct 50.;
    p99 = pct 99.;
    deciles =
      List.map (fun d -> Option.value ~default:nan (Pstats.percentile sorted (float_of_int (10 * d)))) [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
    n_lat = ops;
    attempted = m.total;
    failed = m.failed;
    wrong = m.wrong;
  }

let host_ns_per_op m =
  Pstats.per_op ~ops:(m.total - m.warmup) ((m.cpu1 -. m.cpu0 -. m.probe_cpu) *. 1e9)

let host_words_per_op m = Pstats.per_op ~ops:(m.total - m.warmup) (m.words1 -. m.words0)

(* Mean probe CPU seconds over the window, and over set-up. *)
let probe_s m = Pstats.per ~base:(float_of_int m.probe_n) m.probe_cpu

let setup_probe_s m = Pstats.per ~base:(float_of_int m.setup_probe_n) m.setup_probe_cpu

let kinds m = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) m.kinds [])

(* Host time spent by the load generator's own code between its calls
   into the kernel: [pause] before each call, [resume] after it. Off
   outside the traced pass, where it costs one branch per call. *)
type lap = { on : bool; mutable since : int64; mutable acc : int64 }

let lap ~on = { on; since = (if on then wall_ns () else 0L); acc = 0L }

let pause l = if l.on then l.acc <- Int64.add l.acc (Int64.sub (wall_ns ()) l.since)

let resume l = if l.on then l.since <- wall_ns ()
