let reset () = Time.counter := 0

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
    Time.counter := !Time.counter + n;
    !on_advance n
  end

let advance_to t =
  let d = t - !Time.counter in
  if d > 0 then begin
    Time.counter := t;
    !on_advance d
  end

let now () = Int64.of_int (Time.now ())

let to_us t = Time.to_us (Int64.to_int t)

let to_seconds t = Time.to_seconds (Int64.to_int t)
