(** ktrace: deterministic kernel-wide tracing.

    A bounded ring buffer of structured records
    [{cycles; task; category; name; args}] with per-category enable
    masks, an overflow counter, and an ftrace-style text renderer.
    Emission charges no virtual cycles and every input is
    deterministic, so the same seed yields a byte-identical trace.
    All categories are off by default: with a category disabled,
    [emit] returns before evaluating the args closure and the ring
    stays empty. *)

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

val all_categories : category list
val category_name : category -> string
val category_of_string : string -> category option
val bit : category -> int

type record = {
  cycles : int64;
  task : string;
  cat : category;
  name : string;
  args : string;
}

(** {2 Enable mask} *)

val enabled : category -> bool
val enable : category -> unit
val disable : category -> unit
val enable_all : unit -> unit
val disable_all : unit -> unit
val enabled_categories : unit -> category list

val mask_value : unit -> int
(** The raw enable bitmask ([bit]-weighted sum of enabled categories). *)

val set_mask : int -> unit
(** Set the raw bitmask; bits that match no category are ignored. *)

(** {2 Emission} *)

val emit : category -> string -> (unit -> string) -> unit
(** [emit cat name args] appends a record if [cat] is enabled; [args]
    is only evaluated (and the record only built) in that case. The
    record's task is kprof's current context ({!Prof.current_name}),
    and while a span is active on it ({!Span.current}) its args end
    with [" span=<id>"]. *)

(** {2 The ring} *)

val capacity : unit -> int
val set_capacity : int -> unit
(** Resize (and clear) the ring. *)

val clear : unit -> unit
(** Drop buffered records and zero the counters; keeps mask and size. *)

val reset : unit -> unit
(** [clear] + disable everything + restore the default capacity. *)

val length : unit -> int
val dropped : unit -> int
(** Records overwritten because the ring was full. *)

val total : unit -> int
(** Records ever emitted (buffered + dropped). *)

val records : unit -> record list
(** Oldest first; at most [capacity ()] entries (newest are kept). *)

(** {2 Rendering} *)

val render_record : record -> string
val render : ?limit:int -> unit -> string
(** The buffered records, newest-[limit] (default all), one per line. *)

(** {2 Probe attach plane}

    Structured tracepoints for verified probe programs (lib/kprobe).
    [fire] hands attached consumers a raw [int64 array] whose per-point
    layout is fixed by [attach_fields]; the kprobe verifier whitelists
    field accesses against exactly these layouts. With nothing attached
    [fire] is a single bitmask test and the fields thunk is never
    evaluated, so a detached run is bit-identical to one without the
    tracepoint. Consumers charge no virtual cycles. *)

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

val all_attach_points : attach_point list
val attach_name : attach_point -> string
val attach_of_string : string -> attach_point option

val attach_fields : attach_point -> string array
(** Whitelisted context-field names; the array index is the slot the
    firing site writes. *)

val attach : attach_point -> name:string -> (int64 array -> unit) -> unit
(** Register a consumer. Consumers run in attach order (load order), so
    execution is deterministic. *)

val detach : attach_point -> name:string -> unit
val detach_name : string -> unit
(** Detach [name] from every attach point. *)

val attached : attach_point -> bool
val any_attached : unit -> bool

val fire : attach_point -> (unit -> int64 array) -> unit
(** [fire ap fields] runs every consumer attached to [ap] on
    [fields ()]; when none is attached, [fields] is not evaluated. *)
