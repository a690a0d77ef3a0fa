type class_ = Rt of int | Fair

type attr = { mutable vrt : Sim.Time.t; mutable cls : class_; mutable ran_since : Sim.Time.t }

type Ostd.Task.custom += Attr of attr

let attr_of t =
  match Ostd.Task.custom t with
  | Some (Attr a) -> a
  | _ ->
    let a = { vrt = 0; cls = Fair; ran_since = 0 } in
    Ostd.Task.set_custom t (Attr a);
    a

let set_class t c = (attr_of t).cls <- c

(* nice -20..19 -> weight, compressed version of Linux's table. *)
let weight_of_nice n =
  let n = max (-20) (min 19 n) in
  let w = 1024. *. (1.25 ** float_of_int (-n)) in
  max 16 (int_of_float w)

module Ord = struct
  type t = Sim.Time.t * int

  let compare (v1, t1) (v2, t2) = if v1 <> v2 then Int.compare v1 v2 else Int.compare t1 t2
end

module Rb = Map.Make (Ord)
(* stands in for the red-black tree of CFS *)

type state = {
  mutable fair : Ostd.Task.t Rb.t;
  mutable rt : (int * Ostd.Task.t Queue.t) list; (* priority -> fifo *)
  mutable min_vruntime : Sim.Time.t;
  mutable nr_queued : int;
}

let st = { fair = Rb.empty; rt = []; min_vruntime = 0; nr_queued = 0 }

let reset_state () =
  st.fair <- Rb.empty;
  st.rt <- [];
  st.min_vruntime <- 0;
  st.nr_queued <- 0

let queued () = st.nr_queued

let enqueue t =
  let a = attr_of t in
  st.nr_queued <- st.nr_queued + 1;
  match a.cls with
  | Rt prio ->
    let q =
      match List.assoc_opt prio st.rt with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        st.rt <- List.sort (fun (a, _) (b, _) -> compare a b) ((prio, q) :: st.rt);
        q
    in
    Queue.push t q
  | Fair ->
    (* A task that slept keeps no bonus beyond min_vruntime: place laggards
       at the current floor so they cannot starve the queue. *)
    if a.vrt < st.min_vruntime then a.vrt <- st.min_vruntime;
    st.fair <- Rb.add (a.vrt, Ostd.Task.tid t) t st.fair

let rec pick_rt = function
  | [] -> None
  | (_, q) :: rest -> ( match Queue.take_opt q with Some t -> Some t | None -> pick_rt rest)

let pick_next () =
  match pick_rt st.rt with
  | Some t ->
    st.nr_queued <- st.nr_queued - 1;
    (attr_of t).ran_since <- Sim.Time.now ();
    Some t
  | None -> (
    match Rb.min_binding_opt st.fair with
    | None -> None
    | Some ((vrt, _), t) ->
      st.fair <- Rb.remove (vrt, Ostd.Task.tid t) st.fair;
      st.nr_queued <- st.nr_queued - 1;
      st.min_vruntime <- vrt;
      (attr_of t).ran_since <- Sim.Time.now ();
      Some t)

let update_curr () =
  match Ostd.Task.current_opt () with
  | None -> ()
  | Some t ->
    let a = attr_of t in
    (match a.cls with
    | Rt _ -> ()
    | Fair ->
      let delta = Int.max 0 (Sim.Time.now () - a.ran_since) in
      let w = float_of_int (weight_of_nice (Ostd.Task.nice t)) in
      a.vrt <- a.vrt + int_of_float (float_of_int delta *. 1024. /. w));
    a.ran_since <- Sim.Time.now ()

let dequeue_curr () = ()

let install () =
  reset_state ();
  let module S = struct
    let enqueue = enqueue

    let pick_next = pick_next

    let update_curr = update_curr

    let dequeue_curr = dequeue_curr
  end in
  Ostd.Task.inject_scheduler (module S)
