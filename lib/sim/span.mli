(** kspan: causal request-span tracing with critical-path analysis.

    A span is one request — a syscall, a redis command, an HTTP request
    — identified by a small integer id allocated at the request
    boundary and propagated across every asynchronous boundary the
    request crosses: bios carry their owning span through merges,
    splits and retries; TX frames carry it through plug bursts and
    mid-burst failures; IRQ completion and the subsequent wakeup edge
    hand it back to the sleeping task.

    Each live span accumulates typed time segments: on-CPU slices
    (labelled [cpu.<innermost kprof scope>]), block/net queue wait,
    device service, IRQ-delivery delay, softirq, scheduler delay, and a
    low-priority [blocked] catch-all for off-CPU time nothing more
    specific explains. When the span ends, overlapping segments are
    resolved by a fixed priority order into a critical-path
    decomposition whose parts sum exactly to the span's wall time (the
    unexplained remainder is reported as [unattributed]).

    Aggregation is per workload class: counts, wall-time histograms,
    critical-path totals, and a bounded slowest-N reservoir (default
    64) that keeps full segment trees only for tail outliers, so p99
    explanations cost O(N) memory.

    Invariants (shared with ktrace/kprof/kprobe):
    - {b Zero cost}: span tracking never charges virtual cycles and
      never consumes randomness; a span-on same-seed run is
      byte-identical to, and ends at the same virtual timestamp as, a
      span-off one.
    - {b Determinism}: all inputs are deterministic, and rendering
      sorts, so same-seed runs produce byte-identical output. *)

(** {2 Lifecycle} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Start tracking spans. Survives boot like the ktrace mask
    (configuration, not run state). *)

val disable : unit -> unit

val auto : unit -> bool

val set_auto : bool -> unit
(** When auto mode is on, syscall dispatch opens a span per syscall
    ([syscall_begin]/[syscall_end]) for tasks with no active span. *)

val clear : unit -> unit
(** Drop all spans, aggregates and reservoirs; keep the enabled/auto
    flags. Called by the board at boot, after the clock rewinds. *)

(** {2 Span boundaries} *)

val current : unit -> int
(** Span id active on the current task, or [0] (idle/event context,
    disabled, or no active span). This is the value async carriers
    (bios, TX frames, ktrace records) capture. *)

val begin_ : cls:string -> name:string -> int
(** Open a span on the current task. Returns its id, or [0] when
    disabled, outside task context, or a span is already active on
    this task (spans do not nest — the outermost boundary owns the
    request). *)

val end_ : int -> unit
(** Finish a span: seals its segments, computes the critical path and
    folds it into the per-class aggregates. [end_ 0] and ending an
    already-finished span are no-ops. *)

val annotate_begin : cls:string -> name:string -> unit
(** Application request boundary (mini_redis per command, mini_nginx
    per HTTP request). Host-level and free: no syscall, no cycles. *)

val annotate_end : unit -> unit
(** End the current task's active span (no-op when none). *)

val syscall_begin : string -> int
(** Auto-span hook for syscall dispatch: opens a [sys.<name>] span if
    enabled, auto mode is on and no span is active. Returns 0 when no
    span was opened; pass the result to [syscall_end]. *)

val syscall_end : int -> unit

(** {2 Segment recording} *)

val add_to : int -> string -> Time.t -> Time.t -> unit
(** [add_to id label t0 t1] records segment [\[t0,t1)] on live span
    [id] — used by completion paths that run outside the owning task
    (block softirq, NIC reap). No-op for id 0, finished spans, or
    empty intervals. *)

val mark : string -> Time.t -> unit
(** [mark label t0] records [\[t0, now)] on the current task's active
    span (e.g. [jbd.commit] around a journal commit). *)

(** {2 Scheduler and interrupt edges} (driven by the kernel layers) *)

val on_dispatch : tid:int -> waited:Time.t -> unit
(** A task was put on CPU; [waited] is its runqueue wait. Records
    [blocked] (descheduled → runnable) and [sched.delay]
    (runnable → dispatched) on the task's active span. *)

val on_deschedule : unit -> unit
(** The current task is leaving the CPU on suspension; call it before
    kprof switches to idle. *)

val on_wake : tid:int -> unit
(** A blocked task was woken. For each [irq<v>] or [softirq] kprof
    scope the waker is inside, the time since that scope was entered
    is recorded on the woken task's span — the IRQ-delivery /
    bottom-half leg of the request's critical path. *)

val on_task_exit : int -> unit
(** Force-end any span the dying task leaked. *)

(** {2 Conservation counters} *)

val count_bio_completed : unit -> unit
(** Bumps [span.bio_completed] in {!Stats} — called exactly once per
    primary span-owned bio at completion; tests compare it against the
    number of bios they created to prove exactly-once ownership across
    merges, splits and retries. *)

(** {2 Inspection} *)

(** A finished span as a report. Its times are [int64] cycles, the view
    [perfbench/] reads ([i_path]); the renderers below work from the
    native-int spans themselves. *)
type info = {
  i_id : int;
  i_cls : string;
  i_name : string;
  i_tid : int;
  i_begin : int64;
  i_dur : int64;
  i_residual : int64; (* critical-path cycles not attributed to a segment *)
  i_path : (string * int64) list; (* critical path, descending by cycles *)
  i_segs : (string * int64 * int64) list; (* label, t0, t1; oldest first *)
}

val live_count : unit -> int

val finished_count : unit -> int

val classes : unit -> string list
(** Classes with at least one finished span, sorted. *)

val class_count : string -> int

val tail : string -> info list
(** The class's slowest-N reservoir, slowest first. *)

val class_p99 : string -> info option
(** The reservoir span closest to the class's p99 rank. *)

val dominant_class : unit -> string option
(** The class that best names the workload: the most-populous
    application class if any ([redis], [http], ...), otherwise the
    most-populous auto [sys.*] class. *)

val max_residual_frac : unit -> float
(** Largest unattributed fraction across every reservoir span — the
    [span run --check] gate (must stay below 0.05). *)

(** {2 Rendering} *)

val render_proc : unit -> string
(** /proc/kspan body: per-class tables with wall-time percentiles,
    critical-path breakdown, and a reservoir summary. *)

val render_top : k:int -> string
(** Top-K waterfalls (slowest spans of the dominant class) plus the
    per-class critical-path histogram. *)

val chrome_events : unit -> string list
(** Chrome trace-event JSON objects (ph:"X") for every reservoir span
    and its segments, one track per span id. *)

val chrome_instant :
  ts_us:float -> name:string -> cat:string -> args:(string * string) list -> string
(** One Chrome instant event (ph:"i"), used to splice ktrace records
    into the same Perfetto timeline. *)

val chrome_wrap : string list -> string
(** Wrap event objects into a complete trace-event JSON document. *)

val json_escape : string -> string
(** Escape a string for a JSON string literal. *)
