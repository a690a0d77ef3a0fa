let boot_epoch_seconds = 1_750_000_000.0

let monotonic_ns () = Sim.Clock.to_ns (Sim.Clock.now ())

let realtime_ns () =
  Int64.add (Int64.of_float (boot_epoch_seconds *. 1e9)) (monotonic_ns ())

let seconds () = Sim.Clock.to_seconds (Sim.Clock.now ())
