let boot ~profile =
  let k = Aster.Kernel.boot ~profile () in
  Libc.install_child_resolver ();
  k

let spawn ~name body =
  ignore
    (Aster.Process.spawn_kernel_style ~name (fun uapi ->
         body (Libc.make uapi)))

let run () = Aster.Kernel.run ()

let time_us f =
  let t0 = Sim.Time.now () in
  f ();
  Sim.Time.to_us (Sim.Time.now () - t0)

let mb_per_s ~bytes_moved ~us =
  if us <= 0. then 0. else float_of_int bytes_moved /. us (* B/us = MB/s *)
