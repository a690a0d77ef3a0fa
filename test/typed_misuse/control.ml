(* Must compile: the misuses of this directory with untyped frames, so
   a failure to compile them is the frame's kind alone. [write] is also
   view_write.ml's twin. *)
let read () = Ostd.Untyped.read_u8 (Ostd.Frame.alloc ()) ~off:0

let write () = Ostd.Untyped.write_u8 (Ostd.Frame.alloc ()) ~off:0 1

let map vm = Ostd.Vmspace.map vm ~vaddr:0x1000 (Ostd.Frame.alloc ()) Ostd.Vmspace.rw

let dma () = Ostd.Dma.Stream.map (Ostd.Frame.alloc ()) ~dev:7

let peek buf = Ostd.Frame.peek (Ostd.Frame.alloc ()) ~off:0 ~buf ~pos:0 ~len:1
