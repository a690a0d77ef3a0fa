(* Must not compile: mapping typed memory into user space (Inv. 5). *)
let misuse vm = Ostd.Vmspace.map vm ~vaddr:0x1000 (Ostd.Frame.Typed.alloc ()) Ostd.Vmspace.rw
