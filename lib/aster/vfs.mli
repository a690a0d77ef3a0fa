(** Virtual file system: inode abstraction, mount table, dentry cache,
    and path resolution.

    Path walking charges per component; with the profile's [rcu_walk]
    flag (Linux) a dcache hit uses the cheap lock-free cost, otherwise
    the lock-walk cost — the mechanism behind the paper's open/stat gap
    (§6.1.1). *)

type kind = Reg | Dir | Fifo | Sock | Chr | Lnk

type inode = {
  ino : int;
  fsname : string;
  mutable kind : kind;
  mutable mode : int;
  mutable nlink : int;
  mutable opens : int;  (** open file descriptions *)
  mutable size : int;
  mutable atime_ns : int;
  mutable mtime_ns : int;
  mutable ctime_ns : int;
  mutable parent : int;
      (** A directory's [..]: the inode number of the directory it is
          named in, or its own at the root of a file system. *)
  ops : ops;
  mutable priv : priv;
  mutable pipe : Channel.t option;
      (** A FIFO's channel, while the FIFO has an opener (Linux's
          [i_pipe]). *)
}

and priv = ..

(** A file system's operations. The namespace ones ([create],
    [unlink], [rename], [link]) only insert, remove or move an entry
    and keep link counts: [unlink] is given the victim, [rename] the
    inode it replaces, and Linux's checks have been made before they
    run. [None] is an operation the file system does not have (the
    call answers -EPERM, an [O_CREAT] open -EACCES). [evict] frees an inode's storage once its
    last link and its last open file description are gone. *)
and ops = {
  lookup : inode -> string -> inode option;
  create : (inode -> string -> kind -> mode:int -> (inode, int) result) option;
  unlink : (inode -> string -> inode -> (unit, int) result) option;
  rename : (inode -> string -> inode -> string -> inode option -> (unit, int) result) option;
  link : (inode -> string -> inode -> (unit, int) result) option;
  evict : inode -> unit;
  readdir : inode -> (string * inode) list;
  read : inode -> pos:int -> buf:bytes -> boff:int -> len:int -> (int, int) result;
  write : inode -> pos:int -> buf:bytes -> boff:int -> len:int -> (int, int) result;
  truncate : inode -> int -> (unit, int) result;
  fsync : inode -> (unit, int) result;
  symlink_target : inode -> string option;
  set_symlink : inode -> string -> (unit, int) result;
}

val default_ops : ops
(** No namespace operation, nothing to evict; data operations fail
    with EINVAL. File systems override what they support. *)

val make_inode :
  fsname:string -> kind:kind -> ?mode:int -> ops:ops -> unit -> inode
(** Allocates a fresh inode number and stamps times; also charges a
    kmalloc for the inode object when a global heap is injected. *)

val touch_mtime : inode -> unit
val touch_atime : inode -> unit

(** {2 Mounts and resolution} *)

val reset : unit -> unit
(** Clear mounts and the dentry cache (new boot). *)

val mount_root : inode -> unit
val mount : string -> inode -> unit
(** Mount a filesystem root at an absolute path. *)

val mounts : unit -> (string * inode) list

type resolved = { inode : inode; path : string }

val resolve : ?cwd:resolved -> string -> (resolved, int) result
(** Follow the path (and symlinks, at most 8 deep, else ELOOP) to an
    inode. A trailing slash asks for a directory (ENOTDIR). *)

val resolve_last : cwd:resolved -> string -> (resolved, int) result
(** The inode a path names, a final symlink not followed (lstat,
    readlink, link's source). *)

val root : unit -> resolved

(** {2 The inode's lifetime} *)

val opened : inode -> unit
(** An open file description, or a process's cwd, now holds the inode. *)

val closed : inode -> unit
(** One no longer does; the inode is evicted if nothing holds it. *)

val dead_dir : inode -> bool
(** A removed directory (Linux's IS_DEADDIR): no new name goes in it,
    and getcwd of it answers ENOENT. *)

val readdir : inode -> ((string * int * kind) list, int) result
(** A directory's listing as getdents64 returns it, each entry its
    name, inode number and kind: [.] and [..] (both [Dir], the
    directory's own number and its parent's) ahead of the file
    system's entries, or ENOENT for a removed directory, as Linux's
    iterate_dir answers. *)

(** {2 Namespace operations}

    Each makes Linux's checks (fs/namei.c) after one lookup of the
    leaf, charged like any other path component, then calls the file
    system's operation and invalidates the dentries it changed:
    EEXIST for a name that exists; ENOENT for one that does not;
    may_delete's ENOTDIR, EISDIR and ENOTEMPTY; EBUSY at mount points;
    EXDEV across mounts; EINVAL for a rename into the source's own
    subtree and an rmdir of "."; EPERM for a hard link to a directory
    or an operation the file system does not have; trailing slashes;
    ENOENT for a new name in a removed directory. *)

val create : cwd:resolved -> string -> kind -> mode:int -> (inode, int) result
(** mkdir and mknod. *)

val symlink : cwd:resolved -> target:string -> string -> (unit, int) result
val unlink : cwd:resolved -> string -> (unit, int) result
val rmdir : cwd:resolved -> string -> (unit, int) result
val rename : cwd:resolved -> string -> string -> (unit, int) result
val link : cwd:resolved -> string -> string -> (unit, int) result

val truncate : inode -> int -> (unit, int) result
(** EISDIR for a directory, EINVAL for anything but a regular file. *)

val o_accmode : int
val o_creat : int
val o_trunc : int

val open_ : cwd:resolved -> string -> flags:int -> mode:int -> (inode, int) result
(** open(2)'s path side: resolve or create, then the kind checks
    (EISDIR for a directory opened to write or truncate, or with
    O_CREAT; ENOTDIR for O_DIRECTORY) and O_TRUNC. O_CREAT through a
    dangling symlink creates its target (EEXIST with O_EXCL). Charges
    exactly the path walk open has always charged. *)
