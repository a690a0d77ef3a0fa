(* The probe bytecode: a deliberately tiny, eBPF-shaped instruction set
   whose every program can be proven safe at load time (see
   Verifier). Eight int64 registers r0..r7; jumps skip a positive
   number of following instructions, so control flow only moves
   forward and termination is structural. All state a program can
   write lives in its own named maps. *)

let nregs = 8

type alu = Add | Sub | Mul | Div | And | Or | Lsl | Lsr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* Source operand: a register or an immediate. *)
type operand = Reg of int | Imm of int64

(* Context-field reference: by name (resolved against the point's field
   names at load time) or by raw slot index. *)
type ctxref = Cname of string | Cidx of int

type insn =
  | Ld of int * operand (* rd <- src *)
  | Ldctx of int * ctxref (* rd <- ctx field *)
  | Alu of alu * int * operand (* rd <- rd op src; /0 and >=64-bit shifts yield 0 *)
  | Jmp of int (* skip the next n instructions, n >= 1 *)
  | Jcond of cmp * int * operand * int (* if (ra cmp src) skip next n, n >= 1 *)
  | Count of string * operand (* counter map += src *)
  | Upd of string * int * operand (* perkey map[rkey] += src *)
  | Setk of string * int * operand (* perkey map[rkey] <- src *)
  | Get of int * string * int (* rd <- perkey map[rkey] (0 if absent) *)
  | Hist of string * int (* hist map <- float rv *)
  | Histk of string * int * int (* khist map[rkey] <- float rv *)
  | Ringp of string * int * int (* ring map push (rkey, rval), bounded *)
  | Emit of string * operand (* stat <prog>.<label> += 1 + ktrace Probe record *)
  | Ret

type map_kind = Counter | Perkey | Histogram | Keyed_histogram | Ring

let map_kind_name = function
  | Counter -> "counter"
  | Perkey -> "perkey"
  | Histogram -> "hist"
  | Keyed_histogram -> "khist"
  | Ring -> "ring"

let map_kind_of_string = function
  | "counter" -> Some Counter
  | "perkey" -> Some Perkey
  | "hist" -> Some Histogram
  | "khist" -> Some Keyed_histogram
  | "ring" -> Some Ring
  | _ -> None

type prog = {
  pname : string;
  attach : string list; (* tracepoint names, "<category>:<name>" *)
  maps : (string * map_kind) list; (* declaration order *)
  code : insn array;
}

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | And -> "and"
  | Or -> "or"
  | Lsl -> "lsl"
  | Lsr -> "lsr"

let cmp_name = function
  | Eq -> "jeq"
  | Ne -> "jne"
  | Lt -> "jlt"
  | Le -> "jle"
  | Gt -> "jgt"
  | Ge -> "jge"

let operand_str = function Reg r -> Printf.sprintf "r%d" r | Imm v -> Int64.to_string v

let ctxref_str = function Cname s -> s | Cidx i -> string_of_int i

let insn_str = function
  | Ld (r, o) -> Printf.sprintf "ld r%d, %s" r (operand_str o)
  | Ldctx (r, c) -> Printf.sprintf "ldctx r%d, %s" r (ctxref_str c)
  | Alu (op, r, o) -> Printf.sprintf "%s r%d, %s" (alu_name op) r (operand_str o)
  | Jmp n -> Printf.sprintf "jmp +%d" n
  | Jcond (c, r, o, n) -> Printf.sprintf "%s r%d, %s, +%d" (cmp_name c) r (operand_str o) n
  | Count (m, o) -> Printf.sprintf "count %s, %s" m (operand_str o)
  | Upd (m, k, o) -> Printf.sprintf "upd %s, r%d, %s" m k (operand_str o)
  | Setk (m, k, o) -> Printf.sprintf "setk %s, r%d, %s" m k (operand_str o)
  | Get (r, m, k) -> Printf.sprintf "get r%d, %s, r%d" r m k
  | Hist (m, r) -> Printf.sprintf "hist %s, r%d" m r
  | Histk (m, k, r) -> Printf.sprintf "histk %s, r%d, r%d" m k r
  | Ringp (m, k, r) -> Printf.sprintf "ring %s, r%d, r%d" m k r
  | Emit (l, o) -> Printf.sprintf "emit %s, %s" l (operand_str o)
  | Ret -> "ret"

let render_prog p =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "prog %s\n" p.pname);
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf "attach %s\n" n)) p.attach;
  List.iter
    (fun (n, k) -> Buffer.add_string b (Printf.sprintf "map %s %s\n" (map_kind_name k) n))
    p.maps;
  Array.iteri (fun i insn -> Buffer.add_string b (Printf.sprintf "%3d: %s\n" i (insn_str insn))) p.code;
  Buffer.contents b

let unknown_point name =
  Printf.sprintf "unknown attach point '%s' (see /proc/kprobe/points)" name
