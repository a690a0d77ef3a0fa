(* The probe compiler. A verified program is compiled once, at load, for
   each tracepoint it attaches to, into a chain of OCaml closures, one
   per instruction; firing runs the chain on the point's field buffer.
   Like Linux's BPF JIT, and like Rex running its safe-by-construction
   extensions as native code, every check happens once, at load: the
   verifier proves the program safe, and compilation resolves each
   context field to its slot, each map to its table, and each emit label
   to its stat key and ktrace point, so a fire looks nothing up by name
   and dispatches on no opcode. What stays at run time is the arithmetic
   made total: division by zero and shifts outside 0..63 yield 0, like
   eBPF. Compiled code charges no virtual cycles and consults no
   randomness, so an attached program never perturbs the simulation and
   same-seed runs produce byte-identical map contents.

   Registers live in one unboxed buffer per compiled program and
   point, reused by every fire without zeroing. That is sound for two
   reasons. The verifier proved that on every path each register is
   written before it is read, so a value left by an earlier fire is
   never seen. And a run cannot re-enter: a program's effects (its maps,
   [Stats], ktrace stores) never fire an attachable point, so no second run
   of the same code starts while one is in flight. Immediates sit in the
   same buffer, past the registers, so every operand is one slot read. *)

open Insn

exception Unresolved of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unresolved s)) fmt

type code = int array -> unit

(* [compile store prog pt] is [prog]'s code for tracepoint [pt],
   updating the maps of [store]. Anything it cannot resolve is an error
   here, at load, never an exception when the point fires. *)
let compile (store : Maps.store) (prog : prog) pt : (code, string) result =
  let fields = Sim.Trace.field_names pt in
  let len = Array.length prog.code in
  (* Each instruction has at most one immediate. *)
  let regs = Bigarray.(Array1.init int64 c_layout (nregs + len) (fun _ -> 0L)) in
  let nslots = ref nregs in
  let reg pc r = if r < 0 || r >= nregs then fail "invalid register r%d at pc %d" r pc else r in
  let slot pc = function
    | Reg r -> reg pc r
    | Imm v ->
      let s = !nslots in
      incr nslots;
      regs.{s} <- v;
      s
  in
  let field pc = function
    | Cidx i when i >= 0 && i < Array.length fields -> i
    | Cname n when Array.mem n fields ->
      let rec find i = if fields.(i) = n then i else find (i + 1) in
      find 0
    | c -> fail "ctx field %s at pc %d does not exist at %s" (ctxref_str c) pc (Sim.Trace.name pt)
  in
  let map pc tbl m =
    match Hashtbl.find_opt tbl m with Some x -> x | None -> fail "map '%s' at pc %d is not in the store" m pc
  in
  let alu op r s (k : code) : code =
    match op with
    | Add -> fun c -> regs.{r} <- Int64.add regs.{r} regs.{s}; k c
    | Sub -> fun c -> regs.{r} <- Int64.sub regs.{r} regs.{s}; k c
    | Mul -> fun c -> regs.{r} <- Int64.mul regs.{r} regs.{s}; k c
    | Div ->
      fun c ->
        let b = regs.{s} in
        regs.{r} <- (if b = 0L then 0L else Int64.div regs.{r} b);
        k c
    | And -> fun c -> regs.{r} <- Int64.logand regs.{r} regs.{s}; k c
    | Or -> fun c -> regs.{r} <- Int64.logor regs.{r} regs.{s}; k c
    | Lsl ->
      fun c ->
        let n = Int64.to_int regs.{s} in
        regs.{r} <- (if n < 0 || n > 63 then 0L else Int64.shift_left regs.{r} n);
        k c
    | Lsr ->
      fun c ->
        let n = Int64.to_int regs.{s} in
        regs.{r} <- (if n < 0 || n > 63 then 0L else Int64.shift_right_logical regs.{r} n);
        k c
  in
  let jcond cmp r s (taken : code) (k : code) : code =
    match cmp with
    | Eq -> fun c -> if regs.{r} = regs.{s} then taken c else k c
    | Ne -> fun c -> if regs.{r} <> regs.{s} then taken c else k c
    | Lt -> fun c -> if regs.{r} < regs.{s} then taken c else k c
    | Le -> fun c -> if regs.{r} <= regs.{s} then taken c else k c
    | Gt -> fun c -> if regs.{r} > regs.{s} then taken c else k c
    | Ge -> fun c -> if regs.{r} >= regs.{s} then taken c else k c
  in
  let done_ : code = fun _ -> () in
  (* Built from the last instruction back to the first: jumps only go
     forward, so every target exists before the jump that needs it. *)
  let next = Array.make (len + 1) done_ in
  let target pc n =
    if n < 1 || pc + 1 + n > len then fail "jump at pc %d (offset %+d) leaves the program" pc n
    else next.(pc + 1 + n)
  in
  let insn pc (k : code) : code =
    match prog.code.(pc) with
    | Ld (r, o) ->
      let r = reg pc r and s = slot pc o in
      fun c -> regs.{r} <- regs.{s}; k c
    | Ldctx (r, f) ->
      let r = reg pc r and i = field pc f in
      fun (c : int array) -> regs.{r} <- Int64.of_int c.(i); k c
    | Alu (op, r, o) -> alu op (reg pc r) (slot pc o) k
    | Jmp n -> target pc n
    | Jcond (cmp, r, o, n) -> jcond cmp (reg pc r) (slot pc o) (target pc n) k
    | Count (m, o) ->
      let cell = map pc store.Maps.counters m and s = slot pc o in
      fun c -> cell := Int64.add !cell regs.{s}; k c
    | Upd (m, kr, o) ->
      let tbl = map pc store.Maps.perkey m and kr = reg pc kr and s = slot pc o in
      fun c -> Maps.upd tbl regs.{kr} regs.{s}; k c
    | Setk (m, kr, o) ->
      let tbl = map pc store.Maps.perkey m and kr = reg pc kr and s = slot pc o in
      fun c -> Maps.setk tbl regs.{kr} regs.{s}; k c
    | Get (r, m, kr) ->
      let tbl = map pc store.Maps.perkey m and r = reg pc r and kr = reg pc kr in
      fun c -> regs.{r} <- Maps.get tbl regs.{kr}; k c
    | Hist (m, r) ->
      let h = map pc store.Maps.hists m and r = reg pc r in
      fun c -> Maps.hist_rec h regs.{r}; k c
    | Histk (m, kr, r) ->
      let tbl = map pc store.Maps.khists m and kr = reg pc kr and r = reg pc r in
      fun c -> Maps.khist_rec tbl regs.{kr} regs.{r}; k c
    | Ringp (m, kr, r) ->
      let ring = map pc store.Maps.rings m and kr = reg pc kr and r = reg pc r in
      fun c -> Maps.ring_push ring regs.{kr} regs.{r}; k c
    | Emit (l, o) ->
      (* The stat is bumped by name on every emit: a [Stats] cell
         cached here would go stale after [Stats.reset]. *)
      let key = prog.pname ^ "." ^ l and s = slot pc o in
      let point =
        Sim.Trace.point Sim.Trace.Probe key [||] (fun f ->
            Printf.sprintf "v=%Ld" (Sim.Trace.join64 f.a f.b))
      in
      fun c ->
        let v = regs.{s} in
        Sim.Stats.incr key;
        Sim.Trace.emit2 point
          (Int64.to_int (Int64.shift_right v 32))
          (Int64.to_int (Int64.logand v 0xffffffffL));
        k c
    | Ret -> done_
  in
  match
    for pc = len - 1 downto 0 do
      next.(pc) <- insn pc next.(pc + 1)
    done
  with
  | () -> Ok next.(0)
  | exception Unresolved e -> Error e
