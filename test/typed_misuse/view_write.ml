(* Must not compile: a write through a sendfile view, which gives out no
   frame. *)
let misuse (v : Aster.Page_cache.view) = Ostd.Untyped.write_u8 v ~off:0 1
