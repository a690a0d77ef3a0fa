(* Must not compile: a device-perspective read of typed memory. *)
let misuse buf = Ostd.Frame.peek (Ostd.Frame.Typed.alloc ()) ~off:0 ~buf ~pos:0 ~len:1
