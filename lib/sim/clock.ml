let cycles_per_us = 3000

let current = ref 0L

let reset () = current := 0L

let now () = !current

(* The observability tap: every way virtual time can move forward — an
   explicit charge or an event-driven jump — reports its delta to the
   observer, so an attribution profiler sees exactly the cycles that
   elapse and nothing else (the conservation invariant). The default
   observer is a no-op; observing never charges cycles itself. *)
let on_advance : (int -> unit) ref = ref (fun _ -> ())

let set_on_advance f = on_advance := f

let charge n =
  if n < 0 then invalid_arg "Clock.charge: negative cost";
  if n > 0 then begin
    current := Int64.add !current (Int64.of_int n);
    !on_advance n
  end

let advance_to t =
  if Int64.compare t !current > 0 then begin
    let d = Int64.to_int (Int64.sub t !current) in
    current := t;
    !on_advance d
  end

let to_us t = Int64.to_float t /. float_of_int cycles_per_us

let to_seconds t = to_us t /. 1_000_000.

let to_ns t = Int64.div (Int64.mul t 1000L) (Int64.of_int cycles_per_us)

let us x = int_of_float (x *. float_of_int cycles_per_us)
