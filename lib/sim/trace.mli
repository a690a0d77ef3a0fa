(** ktrace: deterministic kernel-wide tracing.

    A bounded ring buffer of records with per-category enable masks, an
    overflow counter, and an ftrace-style text renderer. Each site
    declares its tracepoint once ({!point}); emitting stores the
    cycle count, kprof's context name, the live span id, the point and
    its raw fields, runs any probe attached to the point, and allocates
    nothing. The point's renderer runs only when the ring is read. Emission charges no virtual cycles and
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

(** {2 Tracepoints}

    One point per event. A site fires its point once; the ring stores
    the record when the point's category is enabled, and consumers
    attached to the point (verified probe programs, lib/kprobe) then run
    over the point's one preallocated field buffer. Both charge no
    virtual cycles. *)

type fields = { a : int; b : int; c : int; d : int; e : int; f : int; s : string }
(** A record's raw fields, as its renderer sees them; unused ones are
    [0] or [""]. *)

type point

val point : category -> string -> string array -> (fields -> string) -> point
(** [point cat name fields render] declares a tracepoint. [fields] names
    its int fields in slot order ([a] to [f]), at most six; they are
    what an attached probe may read. [render] builds the args string
    from a record's fields when the ring is read; it must depend on
    nothing else. Every point but a [Probe] one is listed by {!points}. *)

val live : point -> bool
(** Whether the point's category is enabled or something is attached:
    a site whose fields cost work to compute tests it first. *)

val emit0 : point -> unit
val emit1 : point -> int -> unit
val emit2 : point -> int -> int -> unit
val emit3 : point -> int -> int -> int -> unit
val emit6 : point -> int -> int -> int -> int -> int -> int -> unit
(** [emitN pt a ...] fires [pt] with [N] int fields (the rest are 0).
    If its category is enabled the ring stores a record, whose task is
    kprof's current context ({!Prof.current_name}) and span the one
    active on it ({!Span.current}). Then, if anything is attached, the
    fields are written to the point's buffer and the consumers run, in
    attach order. Neither step allocates. *)

val emit_s : point -> string -> int -> int -> int -> int -> int -> int -> unit
(** [emit_s pt s a b c d e f] also records one string that already
    exists (a name, never one built for the record). Consumers do not
    see it. *)

val name : point -> string
(** ["<category>:<name>"], the name consumers attach by. *)

val field_names : point -> string array

val points : unit -> point list
(** Every declared point but the [Probe] ones, in declaration order. *)

val find : string -> point list
(** The points {!name} names, in declaration order. A name may match
    several points (a single packet's [net:tx] and a burst's). *)

val attach : point -> name:string -> (int array -> unit) -> unit
(** Register a consumer under [name]. Slot [i] of the buffer it gets is
    field [i] of {!field_names}. A consumer must not keep the buffer
    after it returns, and must not fire a point itself. *)

val detach : point -> name:string -> unit

val hi32 : int64 -> int
val lo32 : int64 -> int

val join64 : int -> int -> int64
(** [join64 (hi32 v) (lo32 v) = v]: a 64-bit value as two int fields.
    Only a probe's emitted value, a 64-bit register, needs this. *)

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
