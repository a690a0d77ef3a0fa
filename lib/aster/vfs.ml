type kind = Reg | Dir | Fifo | Sock | Chr | Lnk

type inode = {
  ino : int;
  fsname : string;
  mutable kind : kind;
  mutable mode : int;
  mutable nlink : int;
  mutable size : int;
  mutable atime_ns : int;
  mutable mtime_ns : int;
  mutable ctime_ns : int;
  ops : ops;
  mutable priv : priv;
}

and priv = ..

and ops = {
  lookup : inode -> string -> inode option;
  create : inode -> string -> kind -> mode:int -> (inode, int) result;
  unlink : inode -> string -> (unit, int) result;
  readdir : inode -> (string * inode) list;
  read : inode -> pos:int -> buf:bytes -> boff:int -> len:int -> (int, int) result;
  write : inode -> pos:int -> buf:bytes -> boff:int -> len:int -> (int, int) result;
  truncate : inode -> int -> (unit, int) result;
  fsync : inode -> (unit, int) result;
  rename : inode -> string -> inode -> string -> (unit, int) result;
  link : inode -> string -> inode -> (unit, int) result;
  symlink_target : inode -> string option;
  set_symlink : inode -> string -> (unit, int) result;
}

type priv += No_priv

let default_ops =
  {
    lookup = (fun _ _ -> None);
    create = (fun _ _ _ ~mode:_ -> Error Errno.enosys);
    unlink = (fun _ _ -> Error Errno.enosys);
    readdir = (fun _ -> []);
    read = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len:_ -> Error Errno.einval);
    write = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len:_ -> Error Errno.einval);
    truncate = (fun _ _ -> Error Errno.einval);
    fsync = (fun _ -> Ok ());
    rename = (fun _ _ _ _ -> Error Errno.enosys);
    link = (fun _ _ _ -> Error Errno.enosys);
    symlink_target = (fun _ -> None);
    set_symlink = (fun _ _ -> Error Errno.enosys);
  }

let next_ino = ref 1

let make_inode ~fsname ~kind ?(mode = 0o644) ~ops () =
  incr next_ino;
  if Ostd.Slab.heap_injected () then
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.kmalloc;
  let now = Ktime.realtime_ns () in
  {
    ino = !next_ino;
    fsname;
    kind;
    mode;
    nlink = 1;
    size = 0;
    atime_ns = now;
    mtime_ns = now;
    ctime_ns = now;
    ops;
    priv = No_priv;
  }

let touch_mtime i = i.mtime_ns <- Ktime.realtime_ns ()

let touch_atime i = i.atime_ns <- Ktime.realtime_ns ()

(* --- Mount table and dentry cache --- *)

let mount_table : (string * inode) list ref = ref []

(* (fsname, parent ino, component) -> inode *)
let dcache : (string * int * string, inode) Hashtbl.t = Hashtbl.create 1024

let hits = ref 0

let reset () =
  mount_table := [];
  Hashtbl.reset dcache;
  hits := 0;
  next_ino := 1

let mount_root inode = mount_table := ("/", inode) :: List.remove_assoc "/" !mount_table

let mount path inode = mount_table := (path, inode) :: !mount_table

let mounts () = !mount_table

type resolved = { inode : inode; path : string }

let root () =
  match List.assoc_opt "/" !mount_table with
  | Some i -> { inode = i; path = "/" }
  | None -> Ostd.Panic.panic "VFS: no root mounted"

let dcache_entries () = Hashtbl.length dcache

let dcache_hits () = !hits

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
    incr hits;
    charge_component ~cached:true;
    Some i
  | None -> (
    charge_component ~cached:false;
    match parent.ops.lookup parent name with
    | Some i ->
      Hashtbl.replace dcache key i;
      Some i
    | None -> None)

let split_path path = List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

let join base comp = if base = "/" then "/" ^ comp else base ^ "/" ^ comp

let parent_path p =
  match String.rindex_opt p '/' with
  | Some 0 | None -> "/"
  | Some i -> String.sub p 0 i

(* Follow mounts: if the absolute path we just reached is a mountpoint,
   continue from the mounted filesystem's root. *)
let cross_mounts cur =
  match List.assoc_opt cur.path !mount_table with
  | Some i when cur.path <> "/" -> { cur with inode = i }
  | Some _ | None -> cur

let max_symlink_depth = 8

let rec walk cur comps depth =
  if depth > max_symlink_depth then Error Errno.einval
  else
    match comps with
    | [] -> Ok cur
    | ".." :: rest ->
      resolve_abs "/" (split_path (parent_path cur.path) @ rest) depth
    | comp :: rest -> (
      if cur.inode.kind <> Dir then Error Errno.enotdir
      else
        match lookup_component cur.inode comp with
        | None -> Error Errno.enoent
        | Some child -> (
          let next = cross_mounts { inode = child; path = join cur.path comp } in
          match next.inode.ops.symlink_target next.inode with
          | Some target -> (
            (* Follow the link (final components included, like stat). *)
            match
              if String.length target > 0 && target.[0] = '/' then
                resolve_abs "/" (split_path target) (depth + 1)
              else walk cur (split_path target) (depth + 1)
            with
            | Ok mid -> walk mid rest depth
            | Error _ as e -> e)
          | None -> walk next rest depth))

and resolve_abs base comps depth =
  let start = if base = "/" then root () else root () in
  ignore base;
  walk start comps depth

let resolve ?cwd path =
  if String.length path = 0 then Error Errno.enoent
  else if path.[0] = '/' then resolve_abs "/" (split_path path) 0
  else
    let base = match cwd with Some c -> c | None -> root () in
    walk base (split_path path) 0

let resolve_parent ?cwd path =
  if String.length path = 0 then Error Errno.enoent
  else
    let comps = split_path path in
    match List.rev comps with
    | [] -> Error Errno.einval
    | leaf :: rev_parents -> (
      let parents = List.rev rev_parents in
      let base_resolve =
        if path.[0] = '/' then resolve_abs "/" parents 0
        else
          let base = match cwd with Some c -> c | None -> root () in
          walk base parents 0
      in
      match base_resolve with
      | Error _ as e -> e
      | Ok parent ->
        if parent.inode.kind <> Dir then Error Errno.enotdir else Ok (parent, leaf))
