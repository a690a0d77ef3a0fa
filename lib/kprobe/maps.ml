(* Per-program map state. Every map a program can touch is created here
   at load time from its declarations, so compiled code only updates
   cells of its own store and writes cannot escape it. Rendering is
   fully deterministic: declaration order for maps, sorted keys within
   a map, insertion order (oldest first) for rings. *)

open Insn

let ring_capacity = 64

type ring = {
  mutable entries : (int64 * int64) array; (* circular, (key, value) *)
  mutable head : int;
  mutable rlen : int;
  mutable rdropped : int;
}

(* Keyed maps hash and compare their int64 keys directly: the generic
   [Hashtbl] would send every update through [caml_hash] and
   [caml_compare]. *)
module Keyed = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal

  let hash k =
    let x = Int64.to_int k * 0x2545F4914F6CDD1D in
    (x lxor (x lsr 29)) land max_int
end)

type store = {
  counters : (string, int64 ref) Hashtbl.t;
  perkey : (string, int64 ref Keyed.t) Hashtbl.t;
  hists : (string, Sim.Hist.t) Hashtbl.t;
  khists : (string, Sim.Hist.t Keyed.t) Hashtbl.t;
  rings : (string, ring) Hashtbl.t;
  decls : (string * map_kind) list;
}

let create decls =
  let s =
    {
      counters = Hashtbl.create 4;
      perkey = Hashtbl.create 4;
      hists = Hashtbl.create 4;
      khists = Hashtbl.create 4;
      rings = Hashtbl.create 4;
      decls;
    }
  in
  List.iter
    (fun (n, k) ->
      match k with
      | Counter -> Hashtbl.replace s.counters n (ref 0L)
      | Perkey -> Hashtbl.replace s.perkey n (Keyed.create 16)
      | Histogram -> Hashtbl.replace s.hists n (Sim.Hist.create ())
      | Keyed_histogram -> Hashtbl.replace s.khists n (Keyed.create 16)
      | Ring ->
        Hashtbl.replace s.rings n
          { entries = Array.make ring_capacity (0L, 0L); head = 0; rlen = 0; rdropped = 0 })
    decls;
  s

(* Rendering looks maps up by declared name, and [create] made every
   declared map, so [find] cannot fail; it keeps that invariant loud.
   The operations below act on one resolved map: the compiler (Vm)
   resolves each map a program names once, at load. *)
let find tbl name = Hashtbl.find tbl name

let cell tbl key =
  match Keyed.find tbl key with
  | c -> c
  | exception Not_found ->
    let c = ref 0L in
    Keyed.replace tbl key c;
    c

let upd tbl key v =
  let c = cell tbl key in
  c := Int64.add !c v

let setk tbl key v = cell tbl key := v

let get tbl key = match Keyed.find tbl key with c -> !c | exception Not_found -> 0L

let hist_rec h v = Sim.Hist.record h (Int64.to_float v)

let khist_rec tbl key v =
  let h =
    match Keyed.find tbl key with
    | h -> h
    | exception Not_found ->
      let h = Sim.Hist.create () in
      Keyed.replace tbl key h;
      h
  in
  Sim.Hist.record h (Int64.to_float v)

let ring_push r key v =
  r.entries.(r.head) <- (key, v);
  r.head <- (r.head + 1) mod ring_capacity;
  if r.rlen < ring_capacity then r.rlen <- r.rlen + 1 else r.rdropped <- r.rdropped + 1

let ring_entries r =
  let first = (r.head - r.rlen + ring_capacity) mod ring_capacity in
  List.init r.rlen (fun i -> r.entries.((first + i) mod ring_capacity))

let sorted_keys tbl = Keyed.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int64.compare

let hist_line h =
  let cell p =
    match Sim.Hist.percentile h p with
    | Some v -> Printf.sprintf "%.3f" v
    | None -> "-"
  in
  let max_cell =
    if Sim.Hist.count h = 0 then "-" else Printf.sprintf "%.3f" (Sim.Hist.max_value h)
  in
  Printf.sprintf "count %d p50 %s p90 %s p99 %s max %s" (Sim.Hist.count h) (cell 50.) (cell 90.)
    (cell 99.) max_cell

let render s =
  let b = Buffer.create 256 in
  List.iter
    (fun (n, k) ->
      match k with
      | Counter ->
        Buffer.add_string b (Printf.sprintf "map %s (counter): %Ld\n" n !(find s.counters n))
      | Perkey ->
        let tbl = find s.perkey n in
        Buffer.add_string b (Printf.sprintf "map %s (perkey): %d keys\n" n (Keyed.length tbl));
        List.iter
          (fun key -> Buffer.add_string b (Printf.sprintf "  %Ld -> %Ld\n" key !(Keyed.find tbl key)))
          (sorted_keys tbl)
      | Histogram ->
        Buffer.add_string b (Printf.sprintf "map %s (hist): %s\n" n (hist_line (find s.hists n)))
      | Keyed_histogram ->
        let tbl = find s.khists n in
        Buffer.add_string b (Printf.sprintf "map %s (khist): %d keys\n" n (Keyed.length tbl));
        List.iter
          (fun key ->
            Buffer.add_string b
              (Printf.sprintf "  %Ld: %s\n" key (hist_line (Keyed.find tbl key))))
          (sorted_keys tbl)
      | Ring ->
        let r = find s.rings n in
        Buffer.add_string b
          (Printf.sprintf "map %s (ring, cap %d): %d entries, %d dropped\n" n ring_capacity r.rlen
             r.rdropped);
        List.iter
          (fun (key, v) -> Buffer.add_string b (Printf.sprintf "  %Ld = %Ld\n" key v))
          (ring_entries r))
    s.decls;
  Buffer.contents b
