(** kprof: deterministic cycle-attribution profiling.

    Turns the simulator's charge points into a profiler: every forward
    movement of the virtual clock is attributed to the current
    execution context (a task, or the idle/event loop) and its stack of
    named scopes. Each context keeps a trie with one node per distinct
    stack, so attribution is one native-int add, and totals are read
    back under folded-stack keys ["ctx;a;b"] — the format flamegraph.pl
    consumes. A node builds its key once, on first read.

    Invariants:
    - {b Conservation}: folded totals sum to exactly the virtual cycles
      elapsed since the last [clear]/boot.
    - {b Zero cost}: kprof never charges cycles and never consumes
      randomness, so a profiled same-seed run is byte-identical to an
      unprofiled one and ends at the same virtual timestamp.
    - {b Determinism}: rendering sorts keys, so same-seed profiled runs
      produce byte-identical folded output. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Start attributing. Clears prior attribution and re-anchors
    conservation at the current virtual time. *)

val disable : unit -> unit
(** Stop attributing; accumulated totals remain readable. *)

val reset : unit -> unit
(** [disable] + drop all attribution. *)

val clear : unit -> unit
(** Drop attribution and re-anchor at the current virtual time; the
    enabled flag survives (configuration, not run state). Called by
    the board at boot, after the clock rewinds. *)

(** {2 Contexts} (driven by the task layer)

    The current context is the one record of who is on the CPU: kspan
    reads its tid and ktrace its name. *)

val switch_to : tid:int -> comm:string -> unit
(** Subsequent cycles attribute to task [tid], named ["comm/tid"]
    (e.g. ["nginx/3"]); the name is formatted once per context. *)

val switch_idle : unit -> unit
(** Subsequent cycles attribute to the idle/event loop, ["idle/0"]. *)

val current_tid : unit -> int
(** The current task's tid, or [0] in the idle/event loop. *)

val current_name : unit -> string

val attribute : int -> unit
(** kprof's half of the {!Clock} observer, which kspan installs:
    attribute [d] cycles to the current context and scope stack. *)

(** {2 Scopes} *)

val scope : string -> (unit -> 'a) -> 'a
(** [scope name f] runs [f] with [name] pushed on the current context's
    scope stack. The stack lives on the context, not the host call
    stack, so it survives task suspension; the pop targets the context
    that was pushed to. Stack bookkeeping runs even when attribution is
    disabled (kspan reads it); only attribution is gated. *)

val cpu_label : unit -> string
(** The label kspan gives on-CPU segments: ["cpu.<innermost scope>"],
    or ["cpu.user"] when the stack is empty. Built once per trie node. *)

val iter_frames : (string -> int -> unit) -> unit
(** [iter_frames f] calls [f label entered] for each scope of the
    current context, innermost first, with the cycle it was entered. *)

(** {2 Reporting} *)

val elapsed : unit -> Time.t
(** Cycles since the conservation anchor. *)

val total_attributed : unit -> Time.t

val conserved : unit -> bool
(** Whether [total_attributed () = elapsed ()] — exact, not approximate. *)

val folded_cycles : unit -> (string * Time.t) list
(** Nonzero folded stacks, sorted by key. *)

val folded : unit -> (string * int64) list
(** {!folded_cycles} as [int64]: the view [perfbench/] reads. *)

val render_folded : unit -> string
(** One ["ctx;a;b CYCLES"] line per folded stack. *)

type frame_stat = { frame : string; self : Time.t; total : Time.t; depth0 : bool }

val frame_stats : unit -> frame_stat list
(** Per-frame rollup, descending by total: [self] is cycles with the
    frame innermost; [total] counts each folded key once per distinct
    frame on it; [depth0] marks context roots. *)

val top_scopes : ?limit:int -> unit -> frame_stat list
(** Named scopes only (context roots filtered out). *)

val render_top : ?limit:int -> unit -> string
(** Table of top frames: self, self%%, total, total%%. *)
