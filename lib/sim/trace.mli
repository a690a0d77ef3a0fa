(** ktrace: deterministic kernel-wide tracing.

    A bounded ring buffer of records with per-category enable masks, an
    overflow counter, and an ftrace-style text renderer. Each site
    declares its tracepoint once ({!point}); emitting stores the
    cycle count, kprof's context name, the live span id, the point and
    its raw fields, and allocates nothing. The point's renderer runs
    only when the ring is read. Emission charges no virtual cycles and
    every input is deterministic, so the same seed yields a
    byte-identical trace. All categories are off by default, and the
    ring's storage is made on the first enable. *)

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
  cycles : Time.t;
  task : string;
  cat : category;
  name : string;
  args : string;
}
(** A record as read back: [args] is the point's rendering of its
    fields, followed by [" span=<id>"] when a span was live. *)

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

(** {2 Tracepoints} *)

type fields = { a : int; b : int; c : int; d : int; s : string }
(** A record's raw fields, as its renderer sees them; unused ones are
    [0] or [""]. *)

type point

val point : category -> string -> (fields -> string) -> point
(** [point cat name render] declares a tracepoint. [render] builds the
    args string from a record's fields when the ring is read; it must
    depend on nothing else. *)

val on : point -> bool
(** Whether the point's category is enabled: a site whose fields cost
    work to compute tests it first. *)

val emit0 : point -> unit
val emit1 : point -> int -> unit
val emit2 : point -> int -> int -> unit
val emit3 : point -> int -> int -> int -> unit
val emit4 : point -> int -> int -> int -> int -> unit
(** [emitN pt a ...] records [pt] with [N] int fields if its category
    is enabled. The record's task is kprof's current context
    ({!Prof.current_name}) and its span the one active on it
    ({!Span.current}). *)

val emit_s : point -> string -> int -> int -> int -> int -> unit
(** [emit_s pt s a b c d] also records one string that already exists
    (a name, never one built for the record). *)

val hi32 : int64 -> int
val lo32 : int64 -> int

val join64 : int -> int -> int64
(** [join64 (hi32 v) (lo32 v) = v]: a 64-bit value as two int fields.
    Only values that are not times need this (a syscall's return, a
    probe's emitted value); a timestamp is a {!Time.t} and fits one. *)

(** {2 The ring} *)

val capacity : unit -> int
val set_capacity : int -> unit
(** Resize (and clear) the ring. *)

val clear : unit -> unit
(** Drop buffered records and zero the counters; keeps mask and size. *)

val reset : unit -> unit
(** [clear] + disable everything + restore the default capacity and
    drop the ring's storage. *)

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
(** The buffered records, newest-[limit] (default all), one per line.
    Only those [limit] records are formatted. *)

(** {2 Probe attach plane}

    Structured tracepoints for verified probe programs (lib/kprobe). A
    site tests {!armed}, writes every field of the point's preallocated
    buffer {!ctx} and calls {!run}, which allocates nothing. The layout
    is fixed by [attach_fields]; the kprobe verifier whitelists field
    accesses against exactly these layouts. With nothing attached a
    site is a single bitmask test that builds nothing, so a detached run
    is bit-identical to one without the tracepoint. Consumers charge no
    virtual cycles. *)

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

type ctx = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A context buffer: one int64 per field of [attach_fields]. *)

val attach : attach_point -> name:string -> (ctx -> unit) -> unit
(** Register a consumer. Consumers run in attach order (load order), so
    execution is deterministic. A consumer must not keep the buffer
    after it returns, and must not fire an attach point itself. *)

val detach : attach_point -> name:string -> unit
val detach_name : string -> unit
(** Detach [name] from every attach point. *)

val any_attached : unit -> bool

val armed : attach_point -> bool
(** Whether anything is attached to the point: one bitmask test. *)

val ctx : attach_point -> ctx
val run : attach_point -> unit
(** Run the point's consumers on its buffer. *)
