(** Slab caches and the injectable global heap (paper §4.4.3, Bonwick's
    original design): size-class caches with per-CPU free lists, refilled
    from slabs, which are in turn carved from whole pages. *)

type cache

val cache_create : ?magazine:bool -> name:string -> slot_size:int -> unit -> cache
(** [magazine:false] disables the per-CPU free list (ablation). *)

val cache_alloc : cache -> Ostd.Slab.Heap_slot.t
val cache_dealloc : cache -> Ostd.Slab.Heap_slot.t -> unit
val cache_shrink : cache -> int
(** Free fully-empty slabs back to the frame allocator; returns how many
    slabs were released. *)

val cache_slabs : cache -> int
val cache_active : cache -> int

val install_global_heap : unit -> unit
(** Build one cache per size class and inject them as OSTD's global heap
    allocator. *)
