(* The state lives in a one-slot int64 Bigarray rather than a mutable
   int64 field: loads and stores through a Bigarray of known kind stay
   unboxed, so a draw that does not return an int64 allocates nothing. *)
type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create seed : t =
  let t = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  t.{0} <- seed;
  t

(* splitmix64: fast, well-distributed, trivially seedable. *)
let[@inline] next (t : t) =
  let z = Int64.add t.{0} 0x9E3779B97F4A7C15L in
  t.{0} <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep the value within OCaml's 63-bit int range before reducing. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. v /. 9007199254740992.0

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
