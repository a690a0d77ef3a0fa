(* [pos] is the event's slot in the heap, -1 once it has fired or been
   cancelled: [cancel] takes the event out rather than leave it behind. *)
type event = { time : Time.t; seq : int; mutable pos : int; run : unit -> unit }

type handle = event

module Heap = struct
  (* Indexed binary min-heap ordered by (time, seq): seq breaks ties so
     that events scheduled earlier fire earlier, keeping runs
     deterministic. *)
  type t = { mutable arr : event array; mutable len : int }

  let dummy = { time = 0; seq = 0; pos = -1; run = ignore }

  let create () = { arr = Array.make 64 dummy; len = 0 }

  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let set h i e =
    h.arr.(i) <- e;
    e.pos <- i

  let swap h i j =
    let t = h.arr.(i) in
    set h i h.arr.(j);
    set h j t

  let rec sift_up h i =
    let p = (i - 1) / 2 in
    if i > 0 && less h.arr.(i) h.arr.(p) then begin
      swap h i p;
      sift_up h p
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 in
    let c = if l + 1 < h.len && less h.arr.(l + 1) h.arr.(l) then l + 1 else l in
    if c < h.len && less h.arr.(c) h.arr.(i) then begin
      swap h i c;
      sift_down h c
    end

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    set h h.len e;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  (* The last entry fills the hole and moves whichever way restores
     the order. *)
  let remove h i =
    h.arr.(i).pos <- -1;
    h.len <- h.len - 1;
    if i < h.len then begin
      set h i h.arr.(h.len);
      sift_up h i;
      sift_down h i
    end;
    h.arr.(h.len) <- dummy
end

let heap = Heap.create ()

let seq = ref 0

let clear () =
  while heap.Heap.len > 0 do
    Heap.remove heap (heap.Heap.len - 1)
  done

let schedule_at time run =
  incr seq;
  let e = { time; seq = !seq; pos = -1; run } in
  Heap.push heap e;
  e

let schedule_after n run =
  if n < 0 then invalid_arg "Events.schedule_after: negative delay";
  schedule_at (Time.now () + n) run

let cancel e = if e.pos >= 0 then Heap.remove heap e.pos

let pending () = heap.Heap.len

(* [run_due] fires only events already due: for those the clock, which
   never moves back, stays where it is. *)
let fire_first () =
  let e = heap.Heap.arr.(0) in
  Heap.remove heap 0;
  Clock.advance_to e.time;
  e.run ()

let run_due () =
  let ran = ref false in
  while heap.Heap.len > 0 && heap.Heap.arr.(0).time <= Time.now () do
    ran := true;
    fire_first ()
  done;
  !ran

let run_next () =
  heap.Heap.len > 0
  && begin
       fire_first ();
       ignore (run_due ());
       true
     end
