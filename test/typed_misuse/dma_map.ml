(* Must not compile: a DMA mapping over typed memory (Inv. 6). *)
let misuse () = Ostd.Dma.Stream.map (Ostd.Frame.Typed.alloc ()) ~dev:7
