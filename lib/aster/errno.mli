(** Linux errno values (returned negated from syscalls, as in the ABI). *)

val eperm : int
val enoent : int
val esrch : int
val eio : int
val ebadf : int
val echild : int
val eagain : int
val eacces : int
val efault : int
val ebusy : int
val eexist : int
val exdev : int
val enotdir : int
val eisdir : int
val einval : int
val enospc : int
val espipe : int
val epipe : int
val enosys : int
val enotempty : int
val eloop : int
val enotsock : int
val emsgsize : int
val eaddrinuse : int
val econnrefused : int
val enotconn : int
val econnreset : int
val eafnosupport : int
val etimedout : int

val name : int -> string
(** [name 2] is ["ENOENT"]. *)
