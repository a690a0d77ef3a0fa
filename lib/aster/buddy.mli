(** Buddy-system frame allocator with a per-CPU order-0 cache — the
    injectable policy Asterinas registers with OSTD (§5).

    Living outside the TCB, a bug here can at worst panic the kernel via
    {!Ostd.Frame.from_unused}'s Inv. 1 check; it cannot alias memory. *)

type t

val create : ?pcpu_cache:bool -> unit -> t
(** [pcpu_cache:false] disables the order-0 fast path (ablation). *)

val as_frame_alloc : t -> (module Ostd.Falloc.FRAME_ALLOC)

val free_pages : t -> int

val install : unit -> t
(** Create and inject into OSTD, then feed it all boot memory. *)
