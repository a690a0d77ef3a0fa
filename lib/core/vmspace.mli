(** User virtual address spaces (paper's [VmSpace]).

    A VmSpace maps user page numbers to frames. Inv. 5: only untyped
    frames may be mapped — {!map} takes a {!Frame.t}, so handing typed
    (sensitive) memory ({!Frame.Typed.t}) to user space does not
    compile, and kernel stacks, page tables, and slabs can never leak
    into a user mapping. The page-table pages themselves are modelled as
    typed frames allocated per 512 mappings.

    Copy-on-write is provided as mechanism: {!fork_clone} shares frames
    with write permission stripped, and the fault handler calls
    {!resolve_cow} to split. *)

type t

type perms = { read : bool; write : bool; exec : bool }

val rw : perms
val ro : perms
val rx : perms

type fault = { vaddr : int; write : bool }

val page_size : int

val create : unit -> t

val destroy : t -> unit
(** Unmap everything and free page-table frames. *)

val id : t -> int

val map : t -> vaddr:int -> Frame.t -> perms -> unit
(** Take ownership of the handle and map its pages at [vaddr]
    (page-aligned). Panics on overlap. *)

val unmap : t -> vaddr:int -> pages:int -> unit
(** Unmapped pages in the range are skipped. *)

val protect : t -> vaddr:int -> pages:int -> perms -> unit

val is_mapped : t -> vaddr:int -> bool

val is_writable : t -> vaddr:int -> bool
(** The page covering [vaddr] is mapped with write permission, so a
    user store there succeeds at once or after {!resolve_cow} splits
    it. Touches nothing, charges nothing and allocates nothing. *)

val frame_at : t -> vaddr:int -> Frame.t option
(** The mapped frame covering [vaddr] (not cloned). *)

val mapped_pages : t -> int

val copy_out : t -> vaddr:int -> buf:bytes -> pos:int -> len:int -> (unit, fault) result
(** Kernel reads user memory (copy_from_user). Charges the user-copy
    cost. Fails with the first faulting page on unmapped/unreadable
    ranges. *)

val copy_in : t -> vaddr:int -> buf:bytes -> pos:int -> len:int -> (unit, fault) result
(** Kernel writes user memory (copy_to_user). Write faults include
    copy-on-write splits, which the caller resolves via the process
    fault handler and retries. *)

val user_access :
  t -> vaddr:int -> len:int -> write:bool -> (unit, fault) result
(** Validate a user-mode load/store without moving kernel data (used by
    the user fiber itself). *)

val fork_clone : t -> t
(** Duplicate for fork: shared frames, writable private pages become
    copy-on-write in both spaces. Charges the per-page fork cost. *)

val resolve_cow : t -> vaddr:int -> bool
(** Split the copy-on-write page covering [vaddr]: allocate a fresh
    untyped frame, copy, remap writable. [false] if the page is not a
    COW mapping (a genuine protection fault). *)
