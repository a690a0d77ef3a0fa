(** Log-bucketed (HDR-style) latency histograms.

    Constant memory, O(1) record, and percentile estimates whose
    relative error is bounded by the sub-bucket width (1/16 of an
    octave). Buckets track count and sum, so a percentile that lands in
    a bucket reports that bucket's mean — exact for constant and
    two-point distributions. Recording charges no virtual cycles.
    Latencies are given in cycles and kept as microseconds. *)

type t

val create : unit -> t

val record : t -> float -> unit
(** Record a value in whatever unit the histogram counts. *)

val record_time : t -> Time.t -> unit
(** Record a duration in microseconds, given in cycles. Allocates
    nothing. *)

val count : t -> int
val mean : t -> float
val max_value : t -> float

val percentile : t -> float -> float option
(** [percentile t 99.] is the p99 estimate; [None] on an empty
    histogram, so table renderers cannot mistake "no samples" for a
    measured 0.0. *)

val percentile_exn : t -> float -> float
(** Like {!percentile} for callers that have already checked
    [count t > 0]. @raise Invalid_argument on an empty histogram. *)

(** {2 Named registry (mirrors [Stats] counters)} *)

val reset : unit -> unit

val observe : string -> Time.t -> unit
(** [observe name c] records [c] cycles, in microseconds, in the named
    histogram ({!record_time}). *)

val named : string -> t
val find : string -> t option
val all : unit -> (string * t) list
val by_prefix : string -> (string * t) list

val summary_line : string -> t -> string
(** One table row: name, count, p50, p90, p99, max. *)

val summary_header : string
