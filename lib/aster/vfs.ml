type kind = Reg | Dir | Fifo | Sock | Chr | Lnk

type inode = {
  ino : int;
  fsname : string;
  mutable kind : kind;
  mutable mode : int;
  mutable nlink : int;
  mutable opens : int;  (* open file descriptions *)
  mutable size : int;
  mutable atime_ns : int;
  mutable mtime_ns : int;
  mutable ctime_ns : int;
  (* A directory's [..]: set where a lookup finds it and where rename
     moves it; a file system's root is its own parent. *)
  mutable parent : int;
  ops : ops;
  mutable priv : priv;
  mutable pipe : Channel.t option; (* a FIFO's, while it has an opener *)
}

and priv = ..

(* A file system's operations. The namespace ones only insert, remove
   or move an entry and keep link counts ([unlink] is given the victim,
   [rename] the inode it replaces): every check Linux makes in
   fs/namei.c is made here, before they run. A file system without one
   answers -EPERM, as Linux's vfs_* functions do. [evict] frees an
   inode's storage once its last link and its last open are gone. *)
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

type priv += No_priv

let default_ops =
  {
    lookup = (fun _ _ -> None);
    create = None;
    unlink = None;
    rename = None;
    link = None;
    evict = ignore;
    readdir = (fun _ -> []);
    read = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len:_ -> Error Errno.einval);
    write = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len:_ -> Error Errno.einval);
    truncate = (fun _ _ -> Error Errno.einval);
    fsync = (fun _ -> Ok ());
    symlink_target = (fun _ -> None);
    set_symlink = (fun _ _ -> Error Errno.einval);
  }

let next_ino = ref 1

let make_inode ~fsname ~kind ?(mode = 0o644) ~ops () =
  incr next_ino;
  if Ostd.Slab.heap_injected () then
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.kmalloc;
  let now = Ktime.realtime_ns () in
  {
    ino = !next_ino;
    parent = !next_ino;
    fsname;
    kind;
    mode;
    nlink = 1;
    opens = 0;
    size = 0;
    atime_ns = now;
    mtime_ns = now;
    ctime_ns = now;
    ops;
    priv = No_priv;
    pipe = None;
  }

let touch_mtime i = i.mtime_ns <- Ktime.realtime_ns ()

let touch_atime i = i.atime_ns <- Ktime.realtime_ns ()

(* --- The inode's lifetime: it lives while a name or an open file
   description holds it (Linux's iput_final) --- *)

let evict_unused i = if i.nlink <= 0 && i.opens = 0 then i.ops.evict i

let opened i = i.opens <- i.opens + 1

let closed i =
  i.opens <- i.opens - 1;
  evict_unused i

(* --- Mount table and dentry cache --- *)

let mount_table : (string * inode) list ref = ref []

(* (fsname, parent ino, component) -> inode *)
let dcache : (string * int * string, inode) Hashtbl.t = Hashtbl.create 1024

let reset () =
  mount_table := [];
  Hashtbl.reset dcache;
  next_ino := 1

let mount_root inode = mount_table := ("/", inode) :: List.remove_assoc "/" !mount_table

let mount path inode = mount_table := (path, inode) :: !mount_table

let mounts () = !mount_table

type resolved = { inode : inode; path : string }

let root () =
  match List.assoc_opt "/" !mount_table with
  | Some i -> { inode = i; path = "/" }
  | None -> Ostd.Panic.panic "VFS: no root mounted"

let dcache_invalidate parent name =
  Hashtbl.remove dcache (parent.fsname, parent.ino, name)

let charge_component ~cached =
  let c = Sim.Cost.c () in
  if cached && (Sim.Profile.get ()).Sim.Profile.rcu_walk then
    Sim.Cost.charge c.Sim.Profile.path_component_fast
  else Sim.Cost.charge c.Sim.Profile.path_component

let lookup_component parent name =
  let key = (parent.fsname, parent.ino, name) in
  match Hashtbl.find_opt dcache key with
  | Some i ->
    charge_component ~cached:true;
    Some i
  | None -> (
    charge_component ~cached:false;
    match parent.ops.lookup parent name with
    | Some i ->
      Hashtbl.replace dcache key i;
      if i.kind = Dir then i.parent <- parent.ino;
      Some i
    | None -> None)

let split_path path = List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

let join base comp = if base = "/" then "/" ^ comp else base ^ "/" ^ comp

let parent_path p =
  match String.rindex_opt p '/' with
  | Some 0 | None -> "/"
  | Some i -> String.sub p 0 i

(* [path] is [dir] or lies below it. *)
let within path dir = path = dir || String.starts_with ~prefix:(join dir "") path

let is_mountpoint path = path <> "/" && List.mem_assoc path !mount_table

(* The mount a resolved path lies on: the longest mount path over it. *)
let mount_of path =
  List.fold_left
    (fun best (m, _) ->
      if within path m && String.length m > String.length best then m else best)
    "/" !mount_table

(* Follow mounts: if the absolute path we just reached is a mountpoint,
   continue from the mounted filesystem's root. *)
let cross_mounts cur =
  match List.assoc_opt cur.path !mount_table with
  | Some i when cur.path <> "/" -> { cur with inode = i }
  | Some _ | None -> cur

let max_symlink_depth = 8

let rec walk cur comps depth =
  if depth > max_symlink_depth then Error Errno.eloop
  else
    match comps with
    | [] -> Ok cur
    | _ :: _ when cur.inode.kind <> Dir -> Error Errno.enotdir
    | ".." :: rest -> walk (root ()) (split_path (parent_path cur.path) @ rest) depth
    | comp :: rest -> (
      match lookup_component cur.inode comp with
      | None -> Error Errno.enoent
      | Some child -> (
        let next = cross_mounts { inode = child; path = join cur.path comp } in
        match next.inode.ops.symlink_target next.inode with
        | Some target -> (
          (* Follow the link (final components included, like stat). *)
          let base = if String.length target > 0 && target.[0] = '/' then root () else cur in
          match walk base (split_path target) (depth + 1) with
          | Ok mid -> walk mid rest depth
          | Error _ as e -> e)
        | None -> walk next rest depth))

let start ?cwd path =
  if path.[0] = '/' then root () else match cwd with Some c -> c | None -> root ()

(* Linux's trailing slash: the path must name a directory. *)
let trailing_slash path = String.length path > 1 && path.[String.length path - 1] = '/'

(* [depth] links have been followed already. *)
let resolve_from ?cwd path depth =
  if String.length path = 0 then Error Errno.enoent
  else
    match walk (start ?cwd path) (split_path path) depth with
    | Ok r when trailing_slash path && r.inode.kind <> Dir -> Error Errno.enotdir
    | r -> r

let resolve ?cwd path = resolve_from ?cwd path 0

(* The last component of a path, as Linux's path walk types it. *)
type last = Name of string | Dot | Dotdot | Root

(* The directory a path's last component lives in, and that component. *)
let resolve_parent ?cwd path =
  if String.length path = 0 then Error Errno.enoent
  else
    match List.rev (List.filter (( <> ) "") (String.split_on_char '/' path)) with
    | [] -> Ok (root (), Root)
    | leaf :: rev_dirs -> (
      match walk (start ?cwd path) (List.filter (( <> ) ".") (List.rev rev_dirs)) 0 with
      | Error _ as e -> e
      | Ok parent when parent.inode.kind <> Dir -> Error Errno.enotdir
      | Ok parent ->
        Ok (parent, match leaf with "." -> Dot | ".." -> Dotdot | name -> Name name))

(* --- Namespace operations: Linux's checks (fs/namei.c), made once ---

   Each looks its leaf up once, charged like any other component, and
   invalidates the dentries it changes. *)

let ( let* ) = Result.bind

let nonempty_dir i = i.kind = Dir && i.ops.readdir i <> []

(* Linux's IS_DEADDIR: a removed directory, which an open or a cwd may
   still hold, takes no new names. *)
let dead_dir i = i.kind = Dir && i.nlink <= 0

let readdir i =
  if dead_dir i then Error Errno.enoent
  else
    Ok
      ((".", i.ino, Dir)
      :: ("..", i.parent, Dir)
      :: List.map (fun (name, e) -> (name, e.ino, e.kind)) (i.ops.readdir i))

(* The inode a path names, a final symlink not followed (lstat,
   readlink, link's source). *)
let resolve_last ~cwd path =
  let* parent, last = resolve_parent ~cwd path in
  match last with
  | Name name when not (trailing_slash path) -> (
    match lookup_component parent.inode name with
    | None -> Error Errno.enoent
    | Some i -> Ok (cross_mounts { inode = i; path = join parent.path name }))
  | Name _ | Dot | Dotdot | Root -> resolve ~cwd path

(* filename_create: the leaf a new name goes to, which must not exist.
   Only a directory may be created through a trailing slash. *)
let new_name ~cwd path ~dir =
  let* parent, last = resolve_parent ~cwd path in
  match last with
  | Dot | Dotdot | Root -> Error Errno.eexist
  | Name _ when dead_dir parent.inode -> Error Errno.enoent
  | Name name -> (
    match lookup_component parent.inode name with
    | Some _ -> Error Errno.eexist
    | None -> if trailing_slash path && not dir then Error Errno.enoent else Ok (parent, name))

let create ~cwd path kind ~mode =
  let* parent, name = new_name ~cwd path ~dir:(kind = Dir) in
  match parent.inode.ops.create with
  | None -> Error Errno.eperm
  | Some create -> create parent.inode name kind ~mode

let symlink ~cwd ~target path =
  let* inode = create ~cwd path Lnk ~mode:0o777 in
  inode.ops.set_symlink inode target

(* do_unlinkat and do_rmdir, then may_delete, vfs_unlink and vfs_rmdir. *)
let remove ~cwd path ~dir =
  let* parent, last = resolve_parent ~cwd path in
  match last with
  | Root -> Error (if dir then Errno.ebusy else Errno.eisdir)
  | Dot -> Error (if dir then Errno.einval else Errno.eisdir)
  | Dotdot -> Error (if dir then Errno.enotempty else Errno.eisdir)
  | Name name -> (
    match lookup_component parent.inode name with
    | None -> Error Errno.enoent
    | Some victim -> (
      if dir && victim.kind <> Dir then Error Errno.enotdir
      else if (not dir) && victim.kind = Dir then Error Errno.eisdir
      else if (not dir) && trailing_slash path then Error Errno.enotdir
      else
        match parent.inode.ops.unlink with
        | None -> Error Errno.eperm
        | Some unlink ->
          if is_mountpoint (join parent.path name) then Error Errno.ebusy
          else if nonempty_dir victim then Error Errno.enotempty
          else
            let* () = unlink parent.inode name victim in
            dcache_invalidate parent.inode name;
            evict_unused victim;
            Ok ()))

let unlink ~cwd path = remove ~cwd path ~dir:false

let rmdir ~cwd path = remove ~cwd path ~dir:true

(* do_renameat2, then vfs_rename. *)
let rename ~cwd oldpath newpath =
  let* sparent, slast = resolve_parent ~cwd oldpath in
  let* dparent, dlast = resolve_parent ~cwd newpath in
  if mount_of sparent.path <> mount_of dparent.path then Error Errno.exdev
  else
    match (slast, dlast) with
    | (Dot | Dotdot | Root), _ | _, (Dot | Dotdot | Root) -> Error Errno.ebusy
    | Name _, Name _ when dead_dir dparent.inode -> Error Errno.enoent
    | Name sname, Name dname -> (
      match lookup_component sparent.inode sname with
      | None -> Error Errno.enoent
      | Some src -> (
        let target = lookup_component dparent.inode dname in
        let spath = join sparent.path sname and dpath = join dparent.path dname in
        let is_dir = src.kind = Dir in
        if (not is_dir) && (trailing_slash oldpath || trailing_slash newpath) then
          Error Errno.enotdir
        else if within dparent.path spath then Error Errno.einval
        else if within sparent.path dpath then Error Errno.enotempty
        else
          match target with
          | Some t when t == src -> Ok ()
          | Some t when is_dir && t.kind <> Dir -> Error Errno.enotdir
          | Some t when (not is_dir) && t.kind = Dir -> Error Errno.eisdir
          | _ -> (
            match sparent.inode.ops.rename with
            | None -> Error Errno.eperm
            | Some rename ->
              if is_mountpoint spath || is_mountpoint dpath then Error Errno.ebusy
              else if Option.fold ~none:false ~some:nonempty_dir target then Error Errno.enotempty
              else
                let* () = rename sparent.inode sname dparent.inode dname target in
                if is_dir then src.parent <- dparent.inode.ino;
                dcache_invalidate sparent.inode sname;
                dcache_invalidate dparent.inode dname;
                Option.iter evict_unused target;
                Ok ())))

(* do_linkat, then vfs_link. *)
let link ~cwd oldpath newpath =
  let* src = resolve_last ~cwd oldpath in
  let* parent, name = new_name ~cwd newpath ~dir:false in
  if mount_of src.path <> mount_of parent.path then Error Errno.exdev
  else
    match parent.inode.ops.link with
    | None -> Error Errno.eperm
    | Some _ when src.inode.kind = Dir -> Error Errno.eperm
    | Some link -> link parent.inode name src.inode

(* vfs_truncate. *)
let truncate inode n =
  match inode.kind with
  | Dir -> Error Errno.eisdir
  | Reg -> inode.ops.truncate inode n
  | Fifo | Sock | Chr | Lnk -> Error Errno.einval

let o_accmode = 3
let o_creat = 0o100
let o_excl = 0o200
let o_trunc = 0o1000
let o_directory = 0o200000

(* path_openat's checks (open_last_lookups, lookup_open, do_open,
   may_open); lookup_open answers EACCES where the file system cannot
   create. The create path walks the parent again, as open always has,
   and takes the leaf's existence from the walk that just failed: a leaf
   it found is in the dcache, and is a dangling symlink. Without O_EXCL
   the open follows it from its own directory and creates its target,
   one more link toward the ELOOP limit. [depth] links were followed
   before this walk. *)
let rec open_at ~cwd path ~flags ~mode depth =
  let has f = flags land f <> 0 in
  if has o_creat && trailing_slash path then
    let* _ = resolve_parent ~cwd path in
    Error Errno.eisdir
  else
    match resolve_from ~cwd path depth with
    | Ok { inode; _ } ->
      if has o_creat && has o_excl then Error Errno.eexist
      else if has o_creat && inode.kind = Dir then Error Errno.eisdir
      else if has o_directory && inode.kind <> Dir then Error Errno.enotdir
      else if inode.kind = Dir && (flags land o_accmode <> 0 || has o_trunc) then
        Error Errno.eisdir
      else begin
        if has o_trunc && inode.kind = Reg then ignore (inode.ops.truncate inode 0);
        Ok inode
      end
    | Error e when e = Errno.enoent && has o_creat -> (
      let* parent, last = resolve_parent ~cwd path in
      match last with
      | Dot | Dotdot | Root -> Error Errno.eisdir
      | Name name -> (
        match Hashtbl.find_opt dcache (parent.inode.fsname, parent.inode.ino, name) with
        | Some link -> (
          match link.ops.symlink_target link with
          | Some target when not (has o_excl) ->
            if depth >= max_symlink_depth then Error Errno.eloop
            else open_at ~cwd:parent target ~flags ~mode (depth + 1)
          | Some _ | None -> Error Errno.eexist)
        | None when dead_dir parent.inode -> Error Errno.enoent
        | None -> (
          match parent.inode.ops.create with
          | None -> Error Errno.eacces
          | Some create -> create parent.inode name Reg ~mode)))
    | Error _ as e -> e

let open_ ~cwd path ~flags ~mode = open_at ~cwd path ~flags ~mode 0
