(* Canned probe programs. The three watchdog.* templates are loaded at
   every boot (always-on anomaly detection); the rest are examples
   loadable by name from the CLI (`probe run <wl> --prog <name>`) or
   used as starting points for hand-written programs. Thresholds are
   OCaml parameters so callers can tune the knobs, but each template
   compiles to plain bytecode that must still pass the verifier —
   watchdogs get no privileges the user's own programs lack. *)

(* Hung-task detector: fires when the scheduler observes that some
   runnable task has been waiting for the CPU longer than
   [threshold_ms] virtual milliseconds. The max_wait_ns ctx field is
   computed by the task layer at every switch/wakeup, so a hogging
   task is caught at the next scheduling event. *)
let hung_task ?(threshold_ms = 50) () =
  Printf.sprintf
    {|# always-on watchdog: runnable task starved of CPU
prog watchdog.hung_task
attach sched:switch
attach sched:wakeup
map counter fired
map hist wait_ms
ldctx r0, max_wait_ns
ld r1, %d
jlt r0, r1, +5
div r0, 1000000
hist wait_ms, r0
count fired, 1
emit fired, r0
ret
|}
    (threshold_ms * 1_000_000)

(* Syscall-latency SLO watchdog: per-nr thresholds (read/write get
   tight microsecond budgets, fsync a journal-commit-sized one,
   everything else [default_us]); offenders above budget land in a
   bounded ring of (nr, lat_us) pairs. *)
let syscall_slo ?(read_us = 50) ?(write_us = 100) ?(fsync_us = 20_000) ?(default_us = 1_000) () =
  Printf.sprintf
    {|# always-on watchdog: syscalls above their latency budget
prog watchdog.syscall_slo
attach syscall:exit
map counter over_total
map ring offenders
map perkey over_by_nr
ldctx r0, lat_ns
div r0, 1000
ldctx r1, nr
ld r2, %d
jeq r1, 0, +5
ld r2, %d
jeq r1, 1, +3
ld r2, %d
jeq r1, 74, +1
ld r2, %d
jle r0, r2, +5
count over_total, 1
upd over_by_nr, r1, 1
ring offenders, r1, r0
emit fired, r0
ret
|}
    read_us write_us fsync_us default_us

(* IRQ-storm sentinel: counts deliveries per vector in a sliding
   [window_us] window kept in perkey maps; over [threshold] deliveries
   in one window fires and re-arms. *)
let irq_storm ?(window_us = 1_000) ?(threshold = 200) () =
  Printf.sprintf
    {|# always-on watchdog: interrupt storms per vector
prog watchdog.irq_storm
attach irq:entry
map perkey win_start
map perkey win_count
map counter fired
ldctx r0, vector
ldctx r1, now_ns
get r2, win_start, r0
ld r3, r1
sub r3, r2
ld r4, %d
jle r3, r4, +2
setk win_start, r0, r1
setk win_count, r0, 0
upd win_count, r0, 1
get r5, win_count, r0
ld r6, %d
jle r5, r6, +3
emit fired, r5
count fired, 1
setk win_count, r0, 0
ret
|}
    (window_us * 1_000) threshold

(* Example: syscall invocation counts keyed by nr. *)
let syscall_count =
  {|prog syscall.count
attach syscall:enter
map perkey by_nr
ldctx r0, nr
upd by_nr, r0, 1
ret
|}

(* Example: block completion latency histogram + request counts per
   MiB of disk (sector >> 11). *)
let blk_lat =
  {|prog blk.lat
attach blk:complete
map hist lat_us
map perkey by_mb
ldctx r0, lat_ns
div r0, 1000
hist lat_us, r0
ldctx r1, sector
lsr r1, 11
upd by_mb, r1, 1
ret
|}

(* Example: network byte/segment totals across tx and rx. *)
let net_bytes =
  {|prog net.bytes
attach net:tx
attach net:rx
map counter bytes
map counter segs
ldctx r0, bytes
count bytes, r0
ldctx r1, nseg
count segs, r1
ret
|}

(* The EXPERIMENTS.md worked recipe: read(2) latency histogram keyed
   by fd, filtered to reads that overlapped a journal commit. *)
let read_lat_by_fd =
  {|prog read_lat_by_fd
attach syscall:exit
map khist lat_us_by_fd
map counter reads_in_commit
ldctx r0, nr
jne r0, 0, +7
ldctx r1, journal_commit
jeq r1, 0, +5
ldctx r2, lat_ns
div r2, 1000
ldctx r3, arg0
histk lat_us_by_fd, r3, r2
count reads_in_commit, 1
ret
|}

let watchdogs () = [ hung_task (); syscall_slo (); irq_storm () ]

let examples =
  [
    ("syscall.count", syscall_count);
    ("blk.lat", blk_lat);
    ("net.bytes", net_bytes);
    ("read_lat_by_fd", read_lat_by_fd);
  ]

let by_name name =
  match List.assoc_opt name examples with
  | Some t -> Some t
  | None -> (
    match name with
    | "watchdog.hung_task" -> Some (hung_task ())
    | "watchdog.syscall_slo" -> Some (syscall_slo ())
    | "watchdog.irq_storm" -> Some (irq_storm ())
    | _ -> None)

let names =
  [ "watchdog.hung_task"; "watchdog.syscall_slo"; "watchdog.irq_storm" ]
  @ List.map fst examples

(* Boot-time install. Templates must verify like any user program; a
   template failing its own verifier is a build bug, so be loud. *)
let install_watchdogs () =
  List.iter
    (fun text ->
      match Registry.load_text text with
      | Ok _ -> ()
      | Error e -> failwith ("kprobe watchdog template rejected: " ^ e))
    (watchdogs ())
