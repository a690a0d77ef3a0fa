(** Per-process user memory: regions, mmap/brk, demand paging, COW.

    Regions record what *should* be mapped; pages materialise on first
    touch through the page-fault path (anonymous zero-fill), and fork
    marks writable pages copy-on-write via {!Ostd.Vmspace}. *)

type t

val create : unit -> t
val destroy : t -> unit
val fork : t -> t

val vmspace : t -> Ostd.Vmspace.t

val do_brk : t -> int -> int
(** Set (or query with 0) the program break; returns the new break. *)

val do_mmap : t -> len:int -> (int, int) result
(** Anonymous private mapping; returns the chosen address. *)

val do_munmap : t -> addr:int -> len:int -> (unit, int) result

val do_mprotect : t -> addr:int -> len:int -> writable:bool -> (unit, int) result

val handle_fault : t -> vaddr:int -> write:bool -> bool
(** Resolve a page fault: COW split or demand zero-fill within a region.
    [false] means a genuine access violation (SIGSEGV). *)

val writable_prefix : t -> vaddr:int -> len:int -> int
(** How many of the [len] bytes at [vaddr] a kernel store reaches
    before the first fault {!handle_fault} cannot resolve: whole pages
    mapped writable (copy-on-write ones included) or unmapped inside a
    region. Touches nothing, charges nothing, allocates nothing on
    mapped pages. *)

val mapped_pages : t -> int
