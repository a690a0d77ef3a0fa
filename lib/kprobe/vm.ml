(* The probe VM. Runs only verified code, so execution is a straight
   loop with no runtime checks beyond the arithmetic total-functions
   (div-by-zero and oversized shifts yield 0, like eBPF). The VM
   charges no virtual cycles and consults no randomness, so an
   attached program never perturbs the simulation and same-seed runs
   produce byte-identical map contents. *)

open Insn

(* Ldctx slots are pre-resolved per attach point at load time (the
   verifier proved every name/index legal at every hooked point), so
   execution never sees a name. Emit labels resolve to their stat key
   and ktrace point once per load, too. *)
let resolve (prog : prog) ap =
  let fields = Sim.Trace.attach_fields ap in
  let slot = function
    | Cidx i -> i
    | Cname n ->
      let rec find i = if fields.(i) = n then i else find (i + 1) in
      find 0
  in
  let emit_point = function
    | Elabel l ->
      let key = prog.pname ^ "." ^ l in
      Epoint
        ( key,
          Sim.Trace.point Sim.Trace.Probe key (fun f ->
              Printf.sprintf "v=%Ld" (Sim.Trace.join64 f.a f.b)) )
    | Epoint _ as e -> e
  in
  Array.map
    (function
      | Ldctx (r, c) -> Ldctx (r, Cidx (slot c))
      | Emit (e, o) -> Emit (emit_point e, o)
      | insn -> insn)
    prog.code

let alu_eval op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if b = 0L then 0L else Int64.div a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Lsl ->
    let s = Int64.to_int b in
    if s < 0 || s > 63 then 0L else Int64.shift_left a s
  | Lsr ->
    let s = Int64.to_int b in
    if s < 0 || s > 63 then 0L else Int64.shift_right_logical a s

let cmp_eval c a b =
  let r = Int64.compare a b in
  match c with Eq -> r = 0 | Ne -> r <> 0 | Lt -> r < 0 | Le -> r <= 0 | Gt -> r > 0 | Ge -> r >= 0

let exec ~(store : Maps.store) ~(code : insn array) ~(ctx : int64 array) =
  let regs = Array.make nregs 0L in
  let len = Array.length code in
  let operand = function Reg r -> regs.(r) | Imm v -> v in
  let pc = ref 0 in
  (* The verifier proved all jumps strictly forward, so [pc] strictly
     increases and this loop executes at most [len] instructions. *)
  while !pc < len do
    let next = !pc + 1 in
    (match code.(!pc) with
    | Ld (r, o) ->
      regs.(r) <- operand o;
      pc := next
    | Ldctx (r, Cidx i) ->
      regs.(r) <- ctx.(i);
      pc := next
    | Ldctx (_, Cname _) -> assert false (* resolved at load time *)
    | Alu (op, r, o) ->
      regs.(r) <- alu_eval op regs.(r) (operand o);
      pc := next
    | Jmp n -> pc := next + n
    | Jcond (c, r, o, n) -> if cmp_eval c regs.(r) (operand o) then pc := next + n else pc := next
    | Count (m, o) ->
      Maps.bump store m (operand o);
      pc := next
    | Upd (m, k, o) ->
      Maps.upd store m regs.(k) (operand o);
      pc := next
    | Setk (m, k, o) ->
      Maps.setk store m regs.(k) (operand o);
      pc := next
    | Get (r, m, k) ->
      regs.(r) <- Maps.get store m regs.(k);
      pc := next
    | Hist (m, r) ->
      Maps.hist_rec store m regs.(r);
      pc := next
    | Histk (m, k, r) ->
      Maps.khist_rec store m regs.(k) regs.(r);
      pc := next
    | Ringp (m, k, r) ->
      Maps.ring_push store m regs.(k) regs.(r);
      pc := next
    | Emit (Epoint (key, point), o) ->
      let v = operand o in
      Sim.Stats.incr key;
      Sim.Trace.emit2 point (Sim.Trace.hi32 v) (Sim.Trace.lo32 v);
      pc := next
    | Emit (Elabel _, _) -> assert false (* resolved at load time *)
    | Ret -> pc := len)
  done
