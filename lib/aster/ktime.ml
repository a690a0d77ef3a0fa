let boot_epoch_seconds = 1_750_000_000.0

let boot_epoch_ns = int_of_float (boot_epoch_seconds *. 1e9)

let monotonic_ns () = Sim.Time.to_ns (Sim.Time.now ())

let realtime_ns () = boot_epoch_ns + monotonic_ns ()

let seconds () = Sim.Time.to_seconds (Sim.Time.now ())
