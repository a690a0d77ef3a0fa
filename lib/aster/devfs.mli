(** Character devices: /dev/null and /dev/zero. *)

val populate : Vfs.inode -> unit
(** Link both devices into the given /dev directory. *)
