(* Must not compile: an untyped read of typed memory. *)
let misuse () = Ostd.Untyped.read_u8 (Ostd.Frame.Typed.alloc ()) ~off:0
