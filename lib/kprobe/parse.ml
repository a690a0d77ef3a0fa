(* Text assembler for probe programs. One directive or instruction per
   line; '#' starts a comment. Grammar:

     prog <name>
     attach <cat:name>         # repeatable; see /proc/kprobe/points
     map <kind> <name>         # kind: counter|perkey|hist|khist|ring
     <mnemonic> operands...    # see Insn; jump offsets written +N

   Operands are separated by commas and/or spaces. Registers are
   r0..r7; anything else numeric is an immediate; ldctx takes a field
   name or slot index. Errors return [Error "line N: ..."]. *)

open Insn

let err ln fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" ln s)) fmt

let split_tokens line =
  String.split_on_char ' ' (String.map (fun c -> if c = ',' || c = '\t' then ' ' else c) line)
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let parse_reg tok =
  if String.length tok >= 2 && tok.[0] = 'r' then int_of_string_opt (String.sub tok 1 (String.length tok - 1))
  else None

let parse_operand tok =
  match parse_reg tok with
  | Some r -> Some (Reg r)
  | None -> ( match Int64.of_string_opt tok with Some v -> Some (Imm v) | None -> None)

let parse_offset tok =
  let tok = if String.length tok > 0 && tok.[0] = '+' then String.sub tok 1 (String.length tok - 1) else tok in
  int_of_string_opt tok

let alu_of_string = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "div" -> Some Div
  | "and" -> Some And
  | "or" -> Some Or
  | "lsl" -> Some Lsl
  | "lsr" -> Some Lsr
  | _ -> None

let cmp_of_string = function
  | "jeq" -> Some Eq
  | "jne" -> Some Ne
  | "jlt" -> Some Lt
  | "jle" -> Some Le
  | "jgt" -> Some Gt
  | "jge" -> Some Ge
  | _ -> None

let parse_insn ln mnem args =
  let reg tok k = match parse_reg tok with Some r -> k r | None -> err ln "expected register, got '%s'" tok in
  let operand tok k =
    match parse_operand tok with Some o -> k o | None -> err ln "expected register or immediate, got '%s'" tok
  in
  let offset tok k =
    match parse_offset tok with Some n -> k n | None -> err ln "expected jump offset, got '%s'" tok
  in
  match (mnem, args) with
  | "ld", [ a; b ] -> reg a (fun r -> operand b (fun o -> Ok (Ld (r, o))))
  | "ldctx", [ a; b ] ->
    reg a (fun r ->
        match int_of_string_opt b with
        | Some i -> Ok (Ldctx (r, Cidx i))
        | None -> Ok (Ldctx (r, Cname b)))
  | ("add" | "sub" | "mul" | "div" | "and" | "or" | "lsl" | "lsr"), [ a; b ] ->
    let op = Option.get (alu_of_string mnem) in
    reg a (fun r -> operand b (fun o -> Ok (Alu (op, r, o))))
  | "jmp", [ a ] -> offset a (fun n -> Ok (Jmp n))
  | ("jeq" | "jne" | "jlt" | "jle" | "jgt" | "jge"), [ a; b; c ] ->
    let cmp = Option.get (cmp_of_string mnem) in
    reg a (fun r -> operand b (fun o -> offset c (fun n -> Ok (Jcond (cmp, r, o, n)))))
  | "count", [ m; v ] -> operand v (fun o -> Ok (Count (m, o)))
  | "upd", [ m; k; v ] -> reg k (fun rk -> operand v (fun o -> Ok (Upd (m, rk, o))))
  | "setk", [ m; k; v ] -> reg k (fun rk -> operand v (fun o -> Ok (Setk (m, rk, o))))
  | "get", [ a; m; k ] -> reg a (fun r -> reg k (fun rk -> Ok (Get (r, m, rk))))
  | "hist", [ m; v ] -> reg v (fun r -> Ok (Hist (m, r)))
  | "histk", [ m; k; v ] -> reg k (fun rk -> reg v (fun r -> Ok (Histk (m, rk, r))))
  | "ring", [ m; k; v ] -> reg k (fun rk -> reg v (fun r -> Ok (Ringp (m, rk, r))))
  | "emit", [ l; v ] -> operand v (fun o -> Ok (Emit (l, o)))
  | "ret", [] -> Ok Ret
  | _ -> err ln "cannot parse instruction '%s %s'" mnem (String.concat ", " args)

let parse text : (prog, string) result =
  let name = ref "" in
  let attach = ref [] in
  let maps = ref [] in
  let code = ref [] in
  let error = ref None in
  let fail e = if !error = None then error := Some e in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if !error = None then
        match split_tokens (strip_comment line) with
        | [] -> ()
        | [ "prog"; n ] -> name := n
        | "prog" :: _ -> fail (Printf.sprintf "line %d: prog takes exactly one name" ln)
        | [ "attach"; p ] ->
          if Sim.Trace.find p = [] then fail (Printf.sprintf "line %d: %s" ln (unknown_point p))
          else attach := !attach @ [ p ]
        | [ "map"; k; n ] -> (
          match map_kind_of_string k with
          | Some kind -> maps := !maps @ [ (n, kind) ]
          | None -> fail (Printf.sprintf "line %d: unknown map kind '%s'" ln k))
        | mnem :: args -> (
          match parse_insn ln (String.lowercase_ascii mnem) args with
          | Ok insn -> code := insn :: !code
          | Error e -> fail e))
    (String.split_on_char '\n' text);
  match !error with
  | Some e -> Error e
  | None ->
    if !name = "" then Error "missing 'prog <name>' directive"
    else Ok { pname = !name; attach = !attach; maps = !maps; code = Array.of_list (List.rev !code) }
