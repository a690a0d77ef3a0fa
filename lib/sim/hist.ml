(* Log-bucketed (HDR-style) histograms. One octave is split into
   [subdiv] sub-buckets, so the relative width of any bucket — and
   therefore the worst-case relative error of a percentile estimate —
   is bounded by 1/subdiv. Each bucket tracks count and sum, so the
   reported percentile is the mean of the bucket it lands in: exact for
   distributions that never split a bucket (constant, two-point),
   within bucket width otherwise. *)

let subdiv_bits = 4

let subdiv = 1 lsl subdiv_bits

(* frexp exponents from e_min up to (not including) e_max cover ~3e-5 ..
   ~3e14 µs; larger values go to the overflow bucket. *)
let e_min = -15

let e_max = 49

let nbuckets = 2 + ((e_max - e_min) * subdiv) (* + zero and overflow buckets *)

(* The float totals live in a record of floats only, which OCaml stores
   flat: updating them allocates nothing. *)
type totals = { mutable sum : float; mutable max_v : float }

type t = { mutable count : int; tot : totals; counts : int array; sums : float array }

let create () =
  {
    count = 0;
    tot = { sum = 0.; max_v = neg_infinity };
    counts = Array.make nbuckets 0;
    sums = Array.make nbuckets 0.;
  }

(* [Float.frexp v] is [(m, e)] with [m] in [0.5, 1). For a positive
   normal [v], [e] is the biased exponent less 1022, and spreading [m]
   over [subdiv] sub-buckets takes the fraction's top [subdiv_bits]
   bits; both are read off the bits, since frexp allocates its tuple.
   Subnormals have [e <= -1022], below [e_min]. *)
let[@inline] bucket_of v =
  if v <= 0. then 0
  else begin
    let bits = Int64.bits_of_float v in
    let e = Int64.to_int (Int64.shift_right_logical bits 52) - 1022 in
    if e < e_min then 0
    else if e >= e_max then nbuckets - 1
    else begin
      let frac = Int64.to_int (Int64.shift_right_logical bits (52 - subdiv_bits)) in
      1 + ((e - e_min) * subdiv) + (frac land (subdiv - 1))
    end
  end

let[@inline] add t v =
  t.count <- t.count + 1;
  t.tot.sum <- t.tot.sum +. v;
  if v > t.tot.max_v then t.tot.max_v <- v;
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sums.(i) <- t.sums.(i) +. v

let record t v = add t v

(* The microseconds are computed here, as [Time.to_us] does, so no
   float crosses a call and none is boxed. *)
let record_time t c = add t (float_of_int c /. float_of_int Time.cycles_per_us)

let count t = t.count

let mean t = if t.count = 0 then 0. else t.tot.sum /. float_of_int t.count

let max_value t = if t.count = 0 then 0. else t.tot.max_v

(* An empty histogram has no percentiles: return [None] rather than a
   made-up 0.0 so table renderers must decide how to show the absence
   (they print "-"). Callers that have already checked [count t > 0]
   can use [percentile_exn]. *)
let percentile t p =
  if t.count = 0 then None
  else begin
    let p = Float.min 100. (Float.max 0. p) in
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.count))) in
    let rec walk i cum =
      if i >= nbuckets then t.tot.max_v
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= rank then t.sums.(i) /. float_of_int t.counts.(i) else walk (i + 1) cum
      end
    in
    Some (walk 0 0)
  end

let percentile_exn t p =
  match percentile t p with
  | Some v -> v
  | None -> invalid_arg "Hist.percentile_exn: empty histogram"

(* --- Named registry, mirroring Stats counters --- *)

let table : (string, t) Hashtbl.t = Hashtbl.create 32

let reset () = Hashtbl.reset table

let named name =
  match Hashtbl.find table name with
  | h -> h
  | exception Not_found ->
    let h = create () in
    Hashtbl.add table name h;
    h

let observe name c = record_time (named name) c

let find name = Hashtbl.find_opt table name

let all () =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_prefix prefix =
  List.filter (fun (k, _) -> String.starts_with ~prefix k) (all ())

let summary_line name t =
  let cell p =
    match percentile t p with
    | Some v -> Printf.sprintf "%10.3f" v
    | None -> Printf.sprintf "%10s" "-"
  in
  let max_cell =
    if t.count = 0 then Printf.sprintf "%10s" "-"
    else Printf.sprintf "%10.3f" (max_value t)
  in
  Printf.sprintf "%-28s %8d %s %s %s %s" name t.count (cell 50.) (cell 90.) (cell 99.)
    max_cell

let summary_header =
  Printf.sprintf "%-28s %8s %10s %10s %10s %10s" "name" "count" "p50" "p90" "p99" "max"
