let null_ops =
  {
    Vfs.default_ops with
    read = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len:_ -> Ok 0);
    write = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len -> Ok len);
  }

let zero_ops =
  {
    Vfs.default_ops with
    read =
      (fun _ ~pos:_ ~buf ~boff ~len ->
        Bytes.fill buf boff len '\000';
        Ok len);
    write = (fun _ ~pos:_ ~buf:_ ~boff:_ ~len -> Ok len);
  }

let null_inode () = Vfs.make_inode ~fsname:"devfs" ~kind:Vfs.Chr ~mode:0o666 ~ops:null_ops ()

let zero_inode () = Vfs.make_inode ~fsname:"devfs" ~kind:Vfs.Chr ~mode:0o666 ~ops:zero_ops ()

let populate dev_dir =
  let link = Option.get dev_dir.Vfs.ops.Vfs.link in
  let add name inode =
    match link dev_dir name inode with
    | Ok () -> ()
    | Error e -> Ostd.Panic.panicf "devfs: cannot create /dev/%s (%d)" name e
  in
  add "null" (null_inode ());
  add "zero" (zero_inode ())
