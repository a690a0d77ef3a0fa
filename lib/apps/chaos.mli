(** Chaos soak: mini-app workloads under a deterministic fault schedule.

    Boots a kernel, arms {!Sim.Fault} with the given seed and schedule,
    runs file-system writers (write / fsync / read-back-verify) alongside
    a redis-style network workload, then disarms the plane and audits the
    wreckage: every workload must have completed or failed with a proper
    errno (liveness), a final sync must leave the buffer cache
    byte-identical to the device (durability), and no [Kernel_panic] may
    escape (containment). Shared by the [chaos] CLI subcommand and the
    [@chaos] test alias. *)

type outcome = {
  seed : int64;
  completed : int;  (** workloads that ran to the end successfully *)
  failed_errno : int;  (** workloads that failed with a sane errno — graceful *)
  hung : int;  (** workloads that never finished: a liveness violation *)
  corrupt : int;  (** read-back verification mismatches seen by user code *)
  panics : int;  (** [Kernel_panic] escapes — must be zero *)
  sync_ok : bool;  (** the final sync reported success *)
  blocks_checked : int;
  mismatches : int;  (** cache-vs-device diffs; must be 0 when [sync_ok] *)
  fault_log : string list;  (** deterministic: same seed, same schedule => same log *)
  report : (string * int) list;  (** {!Sim.Stats.fault_report} quartet *)
}

val default_schedule : (string * float) list
(** Every fault site armed at soak-tuned probabilities. *)

val nfiles : int
(** Number of file-system writer workloads the soak spawns (the network
    bench adds one more tracked workload). *)

val run :
  ?profile:Sim.Profile.t -> ?schedule:(string * float) list -> seed:int64 -> unit -> outcome

(** Batched-TX network chaos: two concurrent guest→host streams with the
    TX fault plane (tx_fail / tx_drop) hot for the whole run. Mid-burst
    failures must split descriptor chains onto the retry ladder, dropped
    completions must quarantine buffers, and every soft error must be
    claimed by the socket that owned the frame ([unclaimed] stays 0).
    App-level oracle: each sink byte-identical to its own pattern. *)
type net_outcome = {
  nseed : int64;
  rcs : int * int;  (** client exit codes; 0 = wrote everything *)
  sinks : string * string;  (** bytes each host sink application received *)
  eofs : bool * bool;  (** each sink saw a clean FIN *)
  npanics : int;
  splits : int;  (** net.burst_split: mid-burst errors that split a chain *)
  quarantined : int;  (** buffers leaked to the deadline quarantine *)
  gave_up : int;  (** frames abandoned after the retry ladder *)
  soft_err : int;  (** tcp.tx_soft_err: errors claimed by the owning socket *)
  unclaimed : int;  (** net.tx_err_unclaimed: must stay 0 — no misattribution *)
  injected : int;  (** tx_fail + tx_drop rolls that fired *)
  nfault_log : string list;
}

val net_pattern : stream:int -> int -> Bytes.t
(** The per-stream payload pattern (distinct per stream id). *)

val net_batch_run :
  ?profile:Sim.Profile.t ->
  ?schedule:(string * float) list ->
  seed:int64 ->
  unit ->
  net_outcome

type hang_outcome = {
  victim_rc : int;  (** 0 = the victim still completed once rescued *)
  hog_ms : int;
  wd_fired : int;  (** watchdog.hung_task.fired after the run *)
  wd_maps : string;  (** rendered maps of the watchdog program *)
}

val hang_run : ?profile:Sim.Profile.t -> ?hog_ms:int -> unit -> hang_outcome
(** Starve a Ready victim under a non-yielding CPU hog and report
    whether the always-on hung-task watchdog caught it. *)
