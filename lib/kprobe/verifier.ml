(* Load-time verifier: a program is admitted only if we can prove
   - termination: every jump is strictly forward and the program is
     bounded, so the pc strictly increases and execution visits each
     instruction at most once;
   - memory safety: registers are read only after a write on EVERY
     path reaching the read (forward dataflow over a bitmask of
     initialised registers), and context loads touch only fields
     that EVERY point the program's attach names match declares;
   - side-effect confinement: map instructions name only maps the
     program declares, with matching kinds, so a program can write
     nothing but its own state (Emit bumps a stat namespaced under the
     program's name);
   - one run per event: each attach point is named at most once, so a
     program never runs twice for the same event.

   Rejections return a reason string; nothing is ever half-loaded. *)

open Insn

let max_insns = 256

let max_maps = 16

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let valid_ident s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s

let check_reg pc r = if r < 0 || r >= nregs then err "invalid register r%d at pc %d" r pc else Ok ()

let check_operand pc = function Reg r -> check_reg pc r | Imm _ -> Ok ()

(* A ctx field must exist at EVERY point the program attaches to, so
   one resolved slot per point is safe. *)
let check_ctx pc attach c =
  let per_point name pt =
    let fields = Sim.Trace.field_names pt in
    match c with
    | Cidx i ->
      if i < 0 || i >= Array.length fields then
        err "ctx field index %d out of bounds at pc %d for attach point %s (%d fields)" i pc name
          (Array.length fields)
      else Ok ()
    | Cname n ->
      if Array.mem n fields then Ok ()
      else
        err "ctx field '%s' at pc %d is not whitelisted at attach point %s (fields: %s)" n pc name
          (String.concat ", " (Array.to_list fields))
  in
  List.fold_left
    (fun acc name ->
      List.fold_left
        (fun acc pt -> match acc with Error _ -> acc | Ok () -> per_point name pt)
        acc (Sim.Trace.find name))
    (Ok ()) attach

let check_map pc prog m want =
  match List.assoc_opt m prog.maps with
  | None ->
    err "map '%s' at pc %d is not declared by program '%s' (own maps: %s)" m pc prog.pname
      (match prog.maps with
      | [] -> "none"
      | ms -> String.concat ", " (List.map fst ms))
  | Some k when k <> want ->
    err "map '%s' at pc %d is declared %s but used as %s" m pc (map_kind_name k)
      (map_kind_name want)
  | Some _ -> Ok ()

let check_jump pc len off =
  if off < 1 then
    err "backward or in-place jump at pc %d (offset %+d): only strictly forward jumps are allowed"
      pc off
  else if pc + 1 + off > len then
    err "jump at pc %d (offset +%d) overshoots the program end (length %d)" pc off len
  else Ok ()

(* Per-instruction static checks. *)
let check_insn prog len pc insn =
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  match insn with
  | Ld (r, o) ->
    let* () = check_reg pc r in
    check_operand pc o
  | Ldctx (r, c) ->
    let* () = check_reg pc r in
    check_ctx pc prog.attach c
  | Alu (_, r, o) ->
    let* () = check_reg pc r in
    check_operand pc o
  | Jmp n -> check_jump pc len n
  | Jcond (_, r, o, n) ->
    let* () = check_reg pc r in
    let* () = check_operand pc o in
    check_jump pc len n
  | Count (m, o) ->
    let* () = check_map pc prog m Counter in
    check_operand pc o
  | Upd (m, k, o) ->
    let* () = check_map pc prog m Perkey in
    let* () = check_reg pc k in
    check_operand pc o
  | Setk (m, k, o) ->
    let* () = check_map pc prog m Perkey in
    let* () = check_reg pc k in
    check_operand pc o
  | Get (r, m, k) ->
    let* () = check_reg pc r in
    let* () = check_map pc prog m Perkey in
    check_reg pc k
  | Hist (m, r) ->
    let* () = check_map pc prog m Histogram in
    check_reg pc r
  | Histk (m, k, r) ->
    let* () = check_map pc prog m Keyed_histogram in
    let* () = check_reg pc k in
    check_reg pc r
  | Ringp (m, k, r) ->
    let* () = check_map pc prog m Ring in
    let* () = check_reg pc k in
    check_reg pc r
  | Emit (l, o) ->
    if not (valid_ident l) then err "emit label '%s' at pc %d is not a valid identifier" l pc
    else check_operand pc o
  | Ret -> Ok ()

(* Registers read / written by an instruction, as bitmasks. *)
let reads = function
  | Ld (_, Reg s) | Alu (_, _, Reg s) -> [ s ]
  | Ld (_, Imm _) | Ldctx _ -> []
  | Alu (_, r, Imm _) -> [ r ]
  | Jmp _ | Ret -> []
  | Jcond (_, r, Reg s, _) -> [ r; s ]
  | Jcond (_, r, Imm _, _) -> [ r ]
  | Count (_, Reg s) -> [ s ]
  | Count (_, Imm _) -> []
  | Upd (_, k, Reg s) | Setk (_, k, Reg s) -> [ k; s ]
  | Upd (_, k, Imm _) | Setk (_, k, Imm _) -> [ k ]
  | Get (_, _, k) -> [ k ]
  | Hist (_, r) -> [ r ]
  | Histk (_, k, r) | Ringp (_, k, r) -> [ k; r ]
  | Emit (_, Reg s) -> [ s ]
  | Emit (_, Imm _) -> []

let writes = function
  | Ld (r, _) | Ldctx (r, _) | Get (r, _, _) -> [ r ]
  | Alu (_, r, _) -> [ r ] (* rd is read-modify-write; the read is in [reads] *)
  | _ -> []

let alu_reads_dst = function Alu (_, r, _) -> [ r ] | _ -> []

(* Forward dataflow: known.(pc) = Some mask of registers initialised on
   every path reaching pc (None = unreachable). Because all edges go
   forward, one left-to-right pass reaches the fixpoint. *)
let check_init code =
  let len = Array.length code in
  let known = Array.make (len + 1) None in
  known.(0) <- Some 0;
  let merge j m =
    known.(j) <- (match known.(j) with None -> Some m | Some m0 -> Some (m0 land m))
  in
  let result = ref (Ok ()) in
  for pc = 0 to len - 1 do
    match (!result, known.(pc)) with
    | Error _, _ | _, None -> ()
    | Ok (), Some mask ->
      let insn = code.(pc) in
      let need = reads insn @ alu_reads_dst insn in
      (match List.find_opt (fun r -> mask land (1 lsl r) = 0) need with
      | Some r -> result := err "register r%d read before initialisation at pc %d" r pc
      | None ->
        let mask' = List.fold_left (fun m r -> m lor (1 lsl r)) mask (writes insn) in
        (match insn with
        | Ret -> ()
        | Jmp n -> merge (pc + 1 + n) mask'
        | Jcond (_, _, _, n) ->
          merge (pc + 1) mask';
          merge (pc + 1 + n) mask'
        | _ -> merge (pc + 1) mask'))
  done;
  !result

let verify (prog : prog) : (unit, string) result =
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let len = Array.length prog.code in
  let* () = if valid_ident prog.pname then Ok () else err "invalid program name '%s'" prog.pname in
  let* () =
    let rec dup = function
      | [] -> if prog.attach = [] then err "program '%s' has no attach point" prog.pname else Ok ()
      | n :: tl ->
        if Sim.Trace.find n = [] then Error (unknown_point n)
        else if List.mem n tl then err "duplicate attach point '%s'" n
        else dup tl
    in
    dup prog.attach
  in
  let* () = if len = 0 then err "empty program" else Ok () in
  let* () =
    if len > max_insns then
      err "program too long: %d instructions exceeds the %d-instruction bound" len max_insns
    else Ok ()
  in
  let* () =
    if List.length prog.maps > max_maps then
      err "too many maps: %d exceeds the %d-map bound" (List.length prog.maps) max_maps
    else Ok ()
  in
  let* () =
    let rec dup = function
      | [] -> Ok ()
      | (n, _) :: tl ->
        if not (valid_ident n) then err "invalid map name '%s'" n
        else if List.mem_assoc n tl then err "duplicate map name '%s'" n
        else dup tl
    in
    dup prog.maps
  in
  let* () =
    let acc = ref (Ok ()) in
    Array.iteri
      (fun pc insn -> match !acc with Error _ -> () | Ok () -> acc := check_insn prog len pc insn)
      prog.code;
    !acc
  in
  check_init prog.code
