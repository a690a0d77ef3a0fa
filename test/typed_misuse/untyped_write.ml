(* Must not compile: an untyped write into typed memory. *)
let misuse () = Ostd.Untyped.write_u8 (Ostd.Frame.Typed.alloc ()) ~off:0 1
