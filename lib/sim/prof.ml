(* kprof: a deterministic cycle-attribution profiler.

   The simulator already charges every mechanism's cost through
   [Clock.charge] (and advances over device waits with
   [Clock.advance_to]); kprof turns those charge points into a
   profiler. Each execution context — a task, or the idle/event loop —
   carries a stack of named scopes ([scope "ext2" f], plus implicit
   scopes per syscall, IRQ vector and softirq pushed by the kernel
   layers). Every cycle the clock moves is attributed to the current
   (context × scope-stack), accumulated under a folded-stack key
   ["ctx;a;b"] — the same format flamegraph.pl consumes.

   Invariants:
   - Conservation: between [clear]/[enable] and now, the folded totals
     sum to exactly the elapsed virtual cycles, because the only two
     ways time advances both report their delta to [attribute].
   - Zero cost: kprof never charges virtual cycles and never consumes
     randomness, so a profiled same-seed run is byte-identical to, and
     ends at the same virtual timestamp as, an unprofiled one.
   - Determinism: all inputs (clock deltas, task names, scope order)
     are deterministic, and rendering sorts keys, so the same seed
     yields byte-identical folded output. *)

(* One scope frame: its name and the cycle it was entered. kspan takes
   the IRQ/softirq legs of a wakeup from these entry cycles. *)
type frame = { label : string; entered : int64 }

(* The one record of who is on the CPU: kspan reads its tid, ktrace
   its name. *)
type ctx = {
  tid : int; (* 0 for the idle/event loop *)
  cname : string; (* comm/tid, formatted once *)
  mutable stack : frame list; (* innermost scope first *)
  mutable cell : int64 ref; (* totals slot of the folded key, or [stale] *)
}

let totals : (string, int64 ref) Hashtbl.t = Hashtbl.create 256

(* Contexts by tid. Tids are unique within a boot, and [clear] drops
   every context at boot. *)
let ctxs : (int, ctx) Hashtbl.t = Hashtbl.create 64

let enabled_flag = ref false

let anchor = ref 0L

(* The folded key is resolved lazily, on the first attributed cycle
   after the stack changes, so scopes cost no string work while
   attribution is off. *)
let stale = ref 0L

let ctx_of ~tid ~comm =
  match Hashtbl.find_opt ctxs tid with
  | Some c -> c
  | None ->
    let c = { tid; cname = comm ^ "/" ^ string_of_int tid; stack = []; cell = stale } in
    Hashtbl.add ctxs tid c;
    c

let idle () = ctx_of ~tid:0 ~comm:"idle"

let current = ref (idle ())

let cell_of key =
  match Hashtbl.find_opt totals key with
  | Some r -> r
  | None ->
    let r = ref 0L in
    Hashtbl.add totals key r;
    r

let folded_key c =
  match c.stack with
  | [] -> c.cname
  | st -> c.cname ^ ";" ^ String.concat ";" (List.rev_map (fun f -> f.label) st)

(* kprof's half of the clock observer (kspan installs it): one add per
   clock advancement while attribution is on. *)
let attribute d =
  if !enabled_flag then begin
    let c = !current in
    if c.cell == stale then c.cell <- cell_of (folded_key c);
    c.cell := Int64.add !(c.cell) d
  end

(* Drop all accumulated attribution and re-anchor conservation at the
   current virtual time. Called at boot (the clock rewinds to zero) so
   a profile covers exactly the run since the last boot. *)
let clear () =
  Hashtbl.reset totals;
  Hashtbl.reset ctxs;
  current := idle ();
  anchor := Clock.now ()

let enabled () = !enabled_flag

let enable () =
  if not !enabled_flag then begin
    enabled_flag := true;
    clear ()
  end

let disable () = enabled_flag := false

let reset () =
  disable ();
  clear ()

(* --- Context switching, driven by the task layer ---

   Context and scope-stack bookkeeping is unconditional: it costs no
   virtual cycles either way, and kspan and ktrace read the context
   whether or not kprof attribution is enabled. Only attribution
   itself stays gated behind [enable]. *)

let switch_to ~tid ~comm = current := ctx_of ~tid ~comm

let switch_idle () = current := idle ()

let current_tid () = !current.tid

let current_name () = !current.cname

(* --- Scopes ---

   A scope pushed inside a task survives the task's suspensions: the
   stack lives on the context, not on the host call stack, and the pop
   targets the context that was pushed to — so cycles charged after the
   task resumes keep attributing to the right frame, and completion
   work running in another context is unaffected. *)

let scope label f =
  let c = !current in
  c.stack <- { label; entered = Clock.now () } :: c.stack;
  c.cell <- stale;
  Fun.protect
    ~finally:(fun () ->
      (match c.stack with _ :: rest -> c.stack <- rest | [] -> ());
      c.cell <- stale)
    f

let current_label () = match !current.stack with f :: _ -> f.label | [] -> "user"

let iter_frames f = List.iter (fun fr -> f fr.label fr.entered) !current.stack

(* --- Reporting --- *)

let elapsed () = Int64.sub (Clock.now ()) !anchor

let total_attributed () = Hashtbl.fold (fun _ r acc -> Int64.add acc !r) totals 0L

let conserved () = Int64.equal (total_attributed ()) (elapsed ())

(* Folded stacks, flamegraph.pl-compatible: "ctx;a;b CYCLES" per line,
   sorted by key so same-seed output is byte-identical. *)
let folded () =
  Hashtbl.fold (fun k r acc -> if Int64.equal !r 0L then acc else (k, !r) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let render_folded () =
  String.concat "\n" (List.map (fun (k, c) -> Printf.sprintf "%s %Ld" k c) (folded ()))

type frame_stat = { frame : string; self : int64; total : int64; depth0 : bool }

(* Per-frame self/total rollup: [self] is cycles attributed with the
   frame innermost; [total] counts each folded key's cycles once per
   distinct frame on it (recursion does not double-count). [depth0]
   marks context roots (task names), which the scope table filters. *)
let frame_stats () =
  let tbl : (string, int64 ref * int64 ref * bool ref) Hashtbl.t = Hashtbl.create 64 in
  let slot f =
    match Hashtbl.find_opt tbl f with
    | Some s -> s
    | None ->
      let s = (ref 0L, ref 0L, ref false) in
      Hashtbl.add tbl f s;
      s
  in
  List.iter
    (fun (key, cyc) ->
      let frames = String.split_on_char ';' key in
      let distinct = List.sort_uniq String.compare frames in
      List.iter
        (fun f ->
          let _, tot, _ = slot f in
          tot := Int64.add !tot cyc)
        distinct;
      (match List.rev frames with
      | leaf :: _ ->
        let self, _, _ = slot leaf in
        self := Int64.add !self cyc
      | [] -> ());
      match frames with
      | root :: _ ->
        let _, _, d0 = slot root in
        d0 := true
      | [] -> ())
    (folded ());
  Hashtbl.fold
    (fun frame (self, total, d0) acc ->
      { frame; self = !self; total = !total; depth0 = !d0 } :: acc)
    tbl []
  |> List.sort (fun a b ->
         let c = Int64.compare b.total a.total in
         if c <> 0 then c else String.compare a.frame b.frame)

(* Named scopes only (contexts filtered out), by descending total. *)
let top_scopes ?(limit = 10) () =
  frame_stats ()
  |> List.filter (fun s -> not s.depth0)
  |> List.filteri (fun i _ -> i < limit)

let render_top ?(limit = 20) () =
  let el = Int64.to_float (elapsed ()) in
  let pct c = if el <= 0. then 0. else 100. *. Int64.to_float c /. el in
  let rows =
    frame_stats () |> List.filteri (fun i _ -> i < limit)
    |> List.map (fun s ->
           Printf.sprintf "%-32s %14Ld %6.2f%% %14Ld %6.2f%%" s.frame s.self (pct s.self)
             s.total (pct s.total))
  in
  String.concat "\n"
    (Printf.sprintf "%-32s %14s %7s %14s %7s" "scope" "self" "self%" "total" "total%" :: rows)
