(** A simplified stacked-borrows checker — the part of KernMiri that
    catches Fig. 9(b) (writing through a pointer derived from a shared
    reference).

    Each location keeps a stack of tags. Creating a reference or casting
    a reference to a raw pointer pushes a tag with a permission; using a
    tag pops everything above it; writing requires a Unique/SharedRW
    permission. *)

type perm = Unique | Shared_ro | Shared_rw

type tag = int

type t

val create : unit -> t

val alloc : t -> string -> tag
(** New allocation; returns the base (Unique) tag. *)

val retag : t -> string -> from:tag -> perm -> (tag, string) result
(** Derive a new reference/pointer from an existing tag ([&x], [&mut x],
    [as_ptr], [as_mut_ptr]). *)

val read : t -> string -> tag -> (unit, string) result

val write : t -> string -> tag -> (unit, string) result
(** UB when the tag is Shared_ro ("mutating via a const pointer") or has
    been invalidated by a newer unique borrow. *)
