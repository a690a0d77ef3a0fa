type node =
  | File of { cache : Page_cache.t; mutable len : int }
  | Directory of dir
  | Symlink of { mutable target : string }

and dir = { mutable entries : (string * Vfs.inode) list }

type Vfs.priv += Ram of node

(* tmpfs's default size: half of the boot's frames, which every page a
   file holds counts against. *)
let limit = ref 0
let used = ref 0

let node_of i =
  match i.Vfs.priv with
  | Ram n -> n
  | _ -> Ostd.Panic.panic "ramfs: foreign inode"

(* A directory's entries; the VFS calls the namespace ops on
   directories only. *)
let dir_of i =
  match node_of i with
  | Directory d -> d
  | File _ | Symlink _ -> Ostd.Panic.panic "ramfs: not a directory"

let rec ops =
  {
    Vfs.default_ops with
    lookup =
      (fun dir name ->
        match node_of dir with
        | Directory d -> List.assoc_opt name d.entries
        | File _ | Symlink _ -> None);
    create =
      Some
        (fun dir name kind ~mode ->
          let d = dir_of dir in
          let inode = Vfs.make_inode ~fsname:"ramfs" ~kind ~mode ~ops () in
          (inode.Vfs.priv <-
             (match kind with
             | Vfs.Dir -> Ram (Directory { entries = [] })
             | Vfs.Lnk -> Ram (Symlink { target = "" })
             | Vfs.Reg | Vfs.Fifo | Vfs.Sock | Vfs.Chr ->
               Ram (File { cache = Page_cache.create (); len = 0 })));
          d.entries <- d.entries @ [ (name, inode) ];
          Vfs.touch_mtime dir;
          Ok inode);
    unlink =
      Some
        (fun dir name victim ->
          let d = dir_of dir in
          victim.Vfs.nlink <- victim.Vfs.nlink - 1;
          d.entries <- List.remove_assoc name d.entries;
          Vfs.touch_mtime dir;
          Ok ());
    rename =
      Some
        (fun src_dir src_name dst_dir dst_name replaced ->
          let sd = dir_of src_dir and dd = dir_of dst_dir in
          let child = List.assoc src_name sd.entries in
          Option.iter (fun v -> v.Vfs.nlink <- v.Vfs.nlink - 1) replaced;
          sd.entries <- List.remove_assoc src_name sd.entries;
          dd.entries <- (dst_name, child) :: List.remove_assoc dst_name dd.entries;
          Vfs.touch_mtime src_dir;
          Vfs.touch_mtime dst_dir;
          Ok ());
    link =
      Some
        (fun dir name target ->
          let d = dir_of dir in
          target.Vfs.nlink <- target.Vfs.nlink + 1;
          d.entries <- d.entries @ [ (name, target) ];
          Ok ());
    evict =
      (fun i ->
        match node_of i with
        | File st ->
          used := !used - Page_cache.pages st.cache;
          Page_cache.destroy st.cache
        | Directory _ | Symlink _ -> ());
    readdir =
      (fun dir ->
        match node_of dir with Directory d -> d.entries | File _ | Symlink _ -> []);
    read =
      (fun f ~pos ~buf ~boff ~len ->
        match node_of f with
        | Directory _ | Symlink _ -> Error Errno.einval
        | File st ->
          if pos >= st.len then Ok 0
          else begin
            let n = min len (st.len - pos) in
            Page_cache.read st.cache ~pos ~buf ~boff ~len:n;
            Ok n
          end);
    write =
      (fun f ~pos ~buf ~boff ~len ->
        match node_of f with
        | Directory _ | Symlink _ -> Error Errno.einval
        | File st ->
          let pages = Page_cache.pages st.cache in
          let n = Page_cache.write st.cache ~pos ~buf ~boff ~len ~room:(!limit - !used) in
          used := !used + Page_cache.pages st.cache - pages;
          if n = 0 && len > 0 then Error Errno.enospc
          else begin
            if pos + n > st.len then st.len <- pos + n;
            f.Vfs.size <- st.len;
            Vfs.touch_mtime f;
            Ok n
          end);
    truncate =
      (fun f n ->
        match node_of f with
        | Directory _ | Symlink _ -> Error Errno.einval
        | File st ->
          let pages = Page_cache.pages st.cache in
          Page_cache.truncate st.cache n;
          used := !used + Page_cache.pages st.cache - pages;
          st.len <- n;
          f.Vfs.size <- n;
          Vfs.touch_mtime f;
          Ok ());
    symlink_target =
      (fun i -> match node_of i with Symlink s -> Some s.target | File _ | Directory _ -> None);
    set_symlink =
      (fun i target ->
        match node_of i with
        | Symlink s ->
          s.target <- target;
          Ok ()
        | File _ | Directory _ -> Error Errno.einval);
  }

let create_root () =
  limit := Ostd.Frame.total_frames () / 2;
  used := 0;
  let root = Vfs.make_inode ~fsname:"ramfs" ~kind:Vfs.Dir ~mode:0o755 ~ops () in
  root.Vfs.priv <- Ram (Directory { entries = [] });
  root

let space () = (!limit, !limit - !used)

let file_cache i = match i.Vfs.priv with Ram (File st) -> Some st.cache | _ -> None

(* Zero-copy sendfile source: a pinned view of up to [len] bytes at
   [pos], clamped to the file size like ops.read. [None] at (or past)
   EOF, and for anything that is not a RamFS regular file. *)
let file_view i ~pos ~len =
  match i.Vfs.priv with
  | Ram (File st) when pos < st.len && len > 0 ->
    Some (Page_cache.view st.cache ~pos ~len:(min len (st.len - pos)))
  | _ -> None
