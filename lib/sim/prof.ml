(* kprof: a deterministic cycle-attribution profiler.

   The simulator already charges every mechanism's cost through
   [Clock.charge] (and advances over device waits with
   [Clock.advance_to]); kprof turns those charge points into a
   profiler. Each execution context — a task, or the idle/event loop —
   carries a stack of named scopes ([scope "ext2" f], plus implicit
   scopes per syscall, IRQ vector and softirq pushed by the kernel
   layers). Every cycle the clock moves is attributed to the current
   (context × scope-stack), a node of the context's scope trie, and
   reported under a folded-stack key ["ctx;a;b"] — the same format
   flamegraph.pl consumes.

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

(* A node of a context's scope trie: one per distinct scope stack the
   context has pushed. A push moves to a child, a pop to the parent, so
   attribution adds to the current node's native-int total and never
   builds or hashes a key. The folded key is built on first read. *)
type node = {
  label : string; (* innermost scope; "user" at the root *)
  parent : node; (* the root is its own parent *)
  mutable kids : node list;
  mutable total : int; (* cycles attributed with exactly this stack *)
  mutable key : string; (* folded key once built; "" before *)
  mutable cpu : string; (* kspan's "cpu.<label>" once built; "" before *)
}

(* The one record of who is on the CPU: kspan reads its tid, ktrace
   its name. [entered.(i)] is the cycle the scope at depth [i] was
   entered; kspan takes the IRQ/softirq legs of a wakeup from it. *)
type ctx = {
  tid : int; (* 0 for the idle/event loop *)
  cname : string; (* comm/tid, formatted once *)
  root : node;
  mutable node : node; (* the current stack *)
  mutable depth : int;
  mutable entered : int array;
}

(* Contexts by tid. Tids are unique within a boot, and [clear] drops
   every context at boot. *)
let ctxs : (int, ctx) Hashtbl.t = Hashtbl.create 64

let enabled_flag = ref false

let anchor = ref 0

let ctx_of ~tid ~comm =
  match Hashtbl.find_opt ctxs tid with
  | Some c -> c
  | None ->
    let cname = comm ^ "/" ^ string_of_int tid in
    let rec root = { label = "user"; parent = root; kids = []; total = 0; key = cname; cpu = "" } in
    let c = { tid; cname; root; node = root; depth = 0; entered = Array.make 8 0 } in
    Hashtbl.add ctxs tid c;
    c

let idle () = ctx_of ~tid:0 ~comm:"idle"

let current = ref (idle ())

(* kprof's half of the clock observer (kspan installs it): one add per
   clock advancement while attribution is on. *)
let attribute d =
  if !enabled_flag then begin
    let n = !current.node in
    n.total <- n.total + d
  end

(* Drop all accumulated attribution and re-anchor conservation at the
   current virtual time. Called at boot (the clock rewinds to zero) so
   a profile covers exactly the run since the last boot. *)
let clear () =
  Hashtbl.reset ctxs;
  current := idle ();
  anchor := Time.now ()

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

(* Scope labels are nearly always shared strings (literals, memoized
   syscall and IRQ names), so a push first looks for its child by
   pointer, which is twice as fast as comparing contents. *)
let rec same_kid n label = function
  | [] -> n
  | k :: tl -> if k.label == label then k else same_kid n label tl

let rec equal_kid n label = function
  | [] -> n
  | k :: tl -> if String.equal k.label label then k else equal_kid n label tl

let child n label =
  let k = same_kid n label n.kids in
  let k = if k != n then k else equal_kid n label n.kids in
  if k != n then k
  else begin
    let k = { label; parent = n; kids = []; total = 0; key = ""; cpu = "" } in
    n.kids <- k :: n.kids;
    k
  end

let push c label =
  let d = c.depth in
  if d = Array.length c.entered then begin
    let a = Array.make (2 * d) 0 in
    Array.blit c.entered 0 a 0 d;
    c.entered <- a
  end;
  c.entered.(d) <- Time.now ();
  c.depth <- d + 1;
  c.node <- child c.node label

let pop c =
  if c.depth > 0 then begin
    c.depth <- c.depth - 1;
    c.node <- c.node.parent
  end

let scope label f =
  let c = !current in
  push c label;
  match f () with
  | v ->
    pop c;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    pop c;
    Printexc.raise_with_backtrace e bt

let cpu_label () =
  let n = !current.node in
  if n.cpu = "" then n.cpu <- "cpu." ^ n.label;
  n.cpu

let iter_frames f =
  let c = !current in
  let n = ref c.node in
  for i = c.depth - 1 downto 0 do
    f !n.label c.entered.(i);
    n := !n.parent
  done

(* --- Reporting --- *)

let elapsed () = Time.now () - !anchor

let rec key n =
  if n.key = "" then n.key <- key n.parent ^ ";" ^ n.label;
  n.key

let rec fold_node f n acc = List.fold_left (fun acc k -> fold_node f k acc) (f n acc) n.kids

let fold_nodes f acc = Hashtbl.fold (fun _ c acc -> fold_node f c.root acc) ctxs acc

let total_attributed () = fold_nodes (fun n acc -> acc + n.total) 0

let conserved () = total_attributed () = elapsed ()

(* Folded stacks, flamegraph.pl-compatible: "ctx;a;b CYCLES" per line,
   sorted by key so same-seed output is byte-identical. *)
let folded_cycles () =
  fold_nodes (fun n acc -> if n.total = 0 then acc else (key n, n.total) :: acc) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let folded () = List.map (fun (k, c) -> (k, Int64.of_int c)) (folded_cycles ())

let render_folded () =
  String.concat "\n" (List.map (fun (k, c) -> Printf.sprintf "%s %d" k c) (folded_cycles ()))

type frame_stat = { frame : string; self : Time.t; total : Time.t; depth0 : bool }

(* Per-frame self/total rollup: [self] is cycles attributed with the
   frame innermost; [total] counts each folded key's cycles once per
   distinct frame on it (recursion does not double-count). [depth0]
   marks context roots (task names), which the scope table filters. *)
let frame_stats () =
  let tbl : (string, int ref * int ref * bool ref) Hashtbl.t = Hashtbl.create 64 in
  let slot f =
    match Hashtbl.find_opt tbl f with
    | Some s -> s
    | None ->
      let s = (ref 0, ref 0, ref false) in
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
          tot := !tot + cyc)
        distinct;
      (match List.rev frames with
      | leaf :: _ ->
        let self, _, _ = slot leaf in
        self := !self + cyc
      | [] -> ());
      match frames with
      | root :: _ ->
        let _, _, d0 = slot root in
        d0 := true
      | [] -> ())
    (folded_cycles ());
  Hashtbl.fold
    (fun frame (self, total, d0) acc ->
      { frame; self = !self; total = !total; depth0 = !d0 } :: acc)
    tbl []
  |> List.sort (fun a b ->
         let c = Int.compare b.total a.total in
         if c <> 0 then c else String.compare a.frame b.frame)

(* Named scopes only (contexts filtered out), by descending total. *)
let top_scopes ?(limit = 10) () =
  frame_stats ()
  |> List.filter (fun s -> not s.depth0)
  |> List.filteri (fun i _ -> i < limit)

let render_top ?(limit = 20) () =
  let el = float_of_int (elapsed ()) in
  let pct c = if el <= 0. then 0. else 100. *. float_of_int c /. el in
  let rows =
    frame_stats () |> List.filteri (fun i _ -> i < limit)
    |> List.map (fun s ->
           Printf.sprintf "%-32s %14d %6.2f%% %14d %6.2f%%" s.frame s.self (pct s.self)
             s.total (pct s.total))
  in
  String.concat "\n"
    (Printf.sprintf "%-32s %14s %7s %14s %7s" "scope" "self" "self%" "total" "total%" :: rows)
