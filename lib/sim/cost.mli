(** Charge helpers: read the installed {!Profile} and advance the clock. *)

val c : unit -> Profile.costs
(** Cost table of the installed profile. *)

val charge : int -> unit
(** Advance the virtual clock. *)

val charge_user_copy : int -> unit
(** Charge a user<->kernel copy of [n] bytes. *)

val charge_memcpy : int -> unit
(** Charge an in-kernel copy of [n] bytes. *)

val charge_zero_fill : int -> unit
(** Charge a memset of [n] zero bytes (hole reads, fresh pages). *)

val charge_page_drop : int -> unit
(** Charge the page-cache removal of [n] pages (truncate). *)

val charge_safety : (Profile.safety_costs -> int) -> unit
(** Charge one safety check at the installed profile's Table 8 price,
    which is 0 on a profile without OSTD's checks (linux, and
    {!Profile.with_safety_checks}[ false]). *)

val charge_ring_update : unit -> unit
(** Charge a suppressed-notify virtqueue ring update (no VM exit). *)
