type t = int

let cycles_per_us = 3000

let counter = ref 0

let now () = !counter

let to_ns c = c * 1000 / cycles_per_us

let to_us c = float_of_int c /. float_of_int cycles_per_us

let to_seconds c = to_us c /. 1_000_000.

let of_us x = int_of_float (x *. float_of_int cycles_per_us)
