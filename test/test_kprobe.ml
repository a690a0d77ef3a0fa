(* kprobe tests: the verifier's rejection quartet (termination, memory
   safety, bounds, confinement), VM execution semantics over synthetic
   tracepoint fires, the probe_load/probe_read syscall surface and
   /proc/kprobe, always-on watchdogs catching injected anomalies,
   zero-cost detachment, and same-seed determinism with probes attached.
   Satellites: writable /proc/ktrace masks, /proc table parsers, and
   typed empty-histogram percentiles. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let boot ?(profile = Sim.Profile.asterinas) () =
  let k = Aster.Kernel.boot ~profile () in
  Apps.Libc.install_child_resolver ();
  k

(* Run a user program as init and return its exit code. *)
let run_user ?profile body =
  ignore (boot ?profile ());
  let result = ref None in
  let wrapped uapi =
    let code = body (Apps.Libc.make uapi) in
    result := Some code;
    code
  in
  ignore (Aster.Process.spawn_kernel_style ~name:"test" wrapped);
  Aster.Kernel.run ();
  match !result with
  | Some code -> code
  | None -> Alcotest.fail "user program did not finish"

let fresh () =
  Kprobe.Registry.reset ();
  Sim.Trace.reset ();
  Sim.Stats.reset ();
  Sim.Hist.reset ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let verify_text text =
  match Kprobe.Parse.parse text with
  | Error e -> Error e
  | Ok prog -> Kprobe.Verifier.verify prog

(* Expect a rejection whose reason mentions [needle]. *)
let expect_reject msg needle result =
  match result with
  | Ok _ -> Alcotest.failf "%s: accepted a program that must be rejected" msg
  | Error e ->
    if not (contains e needle) then
      Alcotest.failf "%s: reason %S does not mention %S" msg e needle

let direct_prog ?(attach = [ "syscall:enter" ]) ?(maps = []) code =
  { Kprobe.Insn.pname = "t.direct"; attach; maps; code = Array.of_list code }

(* --- Verifier rejections --- *)

let test_reject_backward_jump () =
  let open Kprobe.Insn in
  expect_reject "in-place jump" "only strictly forward jumps"
    (Kprobe.Verifier.verify (direct_prog [ Ld (0, Imm 1L); Jmp 0; Ret ]));
  expect_reject "backward jump" "backward or in-place jump"
    (Kprobe.Verifier.verify (direct_prog [ Ld (0, Imm 1L); Jmp (-1); Ret ]));
  expect_reject "backward jump via text" "only strictly forward jumps"
    (verify_text "prog t\nattach syscall:enter\nld r0, 1\njmp 0\nret\n")

let test_reject_jump_overshoot () =
  expect_reject "overshooting jump" "overshoots the program end"
    (verify_text "prog t\nattach syscall:enter\nld r0, 1\njeq r0, 1, +5\nret\n")

let test_reject_oob_ctx_field () =
  let open Kprobe.Insn in
  (* syscall:enter exposes 3 fields; slot 7 is out of bounds. *)
  expect_reject "ctx index out of bounds" "out of bounds"
    (Kprobe.Verifier.verify (direct_prog [ Ldctx (0, Cidx 7); Ret ]));
  (* lat_ns exists at syscall:exit but is NOT a field of enter. *)
  expect_reject "ctx name not whitelisted" "not whitelisted"
    (verify_text "prog t\nattach syscall:enter\nldctx r0, lat_ns\nret\n");
  (* a multi-point program may only touch the intersection *)
  expect_reject "ctx must be legal at every attach point" "not whitelisted"
    (verify_text "prog t\nattach syscall:exit\nattach syscall:enter\nldctx r0, lat_ns\nret\n")

let test_reject_overlong_program () =
  let open Kprobe.Insn in
  let code = List.init 257 (fun _ -> Ld (0, Imm 0L)) in
  expect_reject "overlong program" "program too long"
    (Kprobe.Verifier.verify (direct_prog code))

let test_reject_foreign_map () =
  expect_reject "undeclared map" "not declared by program"
    (verify_text "prog t\nattach syscall:enter\ncount nope, 1\nret\n");
  expect_reject "map kind mismatch" "declared counter but used as hist"
    (verify_text
       "prog t\nattach syscall:enter\nmap counter c\nld r0, 1\nhist c, r0\nret\n")

let test_reject_uninitialised_register () =
  expect_reject "read before init" "read before initialisation"
    (verify_text "prog t\nattach syscall:enter\nadd r0, 1\nret\n");
  (* r1 is initialised on only one of the two paths reaching the read *)
  expect_reject "partial-path init" "read before initialisation"
    (verify_text
       "prog t\nattach syscall:enter\nld r0, 1\njeq r0, 0, +1\nld r1, 5\nadd r1, 1\nret\n");
  (* ...but initialising on both paths is fine *)
  match
    verify_text
      "prog t\nattach syscall:enter\nld r0, 1\nld r1, 2\njeq r0, 0, +1\nld r1, 5\nadd r1, 1\nret\n"
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "both-path init rejected: %s" e

let test_reject_structural () =
  expect_reject "no attach point" "has no attach point"
    (verify_text "prog t\nld r0, 1\nret\n");
  expect_reject "empty program" "empty program"
    (Kprobe.Verifier.verify (direct_prog []));
  (match Kprobe.Parse.parse "prog t\nattach syscall:enter\nfrobnicate r0\n" with
  | Ok _ -> Alcotest.fail "parser accepted an unknown mnemonic"
  | Error e -> check "parse error names the line" true (contains e "line"));
  match Kprobe.Parse.parse "attach syscall:enter\nret\n" with
  | Ok _ -> Alcotest.fail "parser accepted a nameless program"
  | Error e -> check "missing prog directive" true (contains e "missing 'prog")

let test_templates_all_verify () =
  fresh ();
  List.iter
    (fun name ->
      match Kprobe.Templates.by_name name with
      | None -> Alcotest.failf "template %s missing" name
      | Some text -> (
        match Kprobe.Registry.load_text text with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "template %s rejected: %s" name e))
    Kprobe.Templates.names;
  check_int "all templates loaded" (List.length Kprobe.Templates.names)
    (List.length (Kprobe.Registry.list ()));
  Kprobe.Registry.reset ()

(* --- VM execution over synthetic fires --- *)

(* Fire the points named [name] as a kernel site does, building the
   fields only when the point is live. *)
let fire name fields =
  List.iter
    (fun pt ->
      if Sim.Trace.live pt then begin
        let f = Array.append (fields ()) (Array.make 6 0) in
        Sim.Trace.emit6 pt f.(0) f.(1) f.(2) f.(3) f.(4) f.(5)
      end)
    (Sim.Trace.find name)

let vm_prog =
  {|prog t.vm
attach syscall:enter
map counter hits
map perkey by_nr
map hist lat
ldctx r0, nr
count hits, 1
upd by_nr, r0, 1
ld r1, 100
div r1, 0
ld r2, 1
lsl r2, 64
add r1, r2
hist lat, r1
ret
|}

let test_vm_exec_and_maps () =
  fresh ();
  (match Kprobe.Registry.load_text vm_prog with
  | Error e -> Alcotest.failf "vm prog rejected: %s" e
  | Ok _ -> ());
  fire "syscall:enter" (fun () -> [| 5; 1; 0 |]);
  fire "syscall:enter" (fun () -> [| 5; 1; 0 |]);
  fire "syscall:enter" (fun () -> [| 7; 1; 0 |]);
  let maps =
    match Kprobe.Registry.render_maps "t.vm" with
    | Some s -> s
    | None -> Alcotest.fail "program vanished"
  in
  check "counter counted every fire" true (contains maps "map hits (counter): 3");
  check "perkey keyed by nr" true (contains maps "5 -> 2");
  check "perkey second key" true (contains maps "7 -> 1");
  (* div-by-zero and a 64-bit shift both yield 0, not a trap: all three
     recorded latencies are 0. *)
  check "hist recorded the defined-zero values" true (contains maps "count 3");
  check "p50 of zeros is zero" true (contains maps "p50 0.000");
  Kprobe.Registry.reset ()

let test_ring_bounded () =
  fresh ();
  let text =
    "prog t.ring\nattach syscall:enter\nmap ring r\nldctx r0, nr\nldctx r1, pid\n\
     ring r, r0, r1\nret\n"
  in
  (match Kprobe.Registry.load_text text with
  | Error e -> Alcotest.failf "ring prog rejected: %s" e
  | Ok _ -> ());
  for i = 1 to 70 do
    fire "syscall:enter" (fun () -> [| i; 1000 + i; 0 |])
  done;
  let maps = Option.get (Kprobe.Registry.render_maps "t.ring") in
  check "ring capped at 64" true (contains maps "64 entries");
  check "overflow counted, oldest dropped" true (contains maps "6 dropped");
  check "oldest surviving entry is fire 7" true (contains maps "7 = 1007");
  check "newest entry survives" true (contains maps "70 = 1070");
  Kprobe.Registry.reset ()

let test_detached_fires_cost_nothing () =
  fresh ();
  let evaluated = ref false in
  fire "blk:issue" (fun () ->
      evaluated := true;
      [| 0; 0; 0 |]);
  check "fields thunk never built with nothing attached" false !evaluated;
  check "no consumers registered" false (List.exists Sim.Trace.live (Sim.Trace.points ()))

let test_emit_is_namespaced () =
  fresh ();
  let text =
    "prog t.emit\nattach syscall:enter\nmap counter c\nldctx r0, nr\nemit saw_nr, r0\n\
     emit lo, -9223372036854775808\nemit hi, 9223372036854775807\ncount c, 1\nret\n"
  in
  (match Kprobe.Registry.load_text text with
  | Error e -> Alcotest.failf "emit prog rejected: %s" e
  | Ok _ -> ());
  Sim.Trace.enable Sim.Trace.Probe;
  fire "syscall:enter" (fun () -> [| 42; 1; 0 |]);
  (* the stat is namespaced under the program's name: confinement *)
  check_int "emit bumps <pname>.<label>" 1 (Sim.Stats.get "t.emit.saw_nr");
  check "trace record lands in the probe category" true
    (List.exists
       (fun r -> r.Sim.Trace.cat = Sim.Trace.Probe)
       (Sim.Trace.records ()));
  Alcotest.(check (list (pair string string)))
    "each record renders its full 64-bit value"
    [
      ("t.emit.saw_nr", "v=42");
      ("t.emit.lo", "v=-9223372036854775808");
      ("t.emit.hi", "v=9223372036854775807");
    ]
    (List.filter_map
       (fun r ->
         if r.Sim.Trace.cat = Sim.Trace.Probe then Some (r.Sim.Trace.name, r.Sim.Trace.args)
         else None)
       (Sim.Trace.records ()));
  Kprobe.Registry.reset ();
  Sim.Trace.reset ()

(* --- Attach points are named once --- *)

let test_reject_duplicate_attach () =
  fresh ();
  let prog attach =
    Printf.sprintf "prog dup\n%smap counter c\ncount c, 1\nret\n"
      (String.concat "" (List.map (fun a -> "attach " ^ a ^ "\n") attach))
  in
  expect_reject "repeated attach point" "duplicate attach point 'syscall:enter'"
    (Kprobe.Registry.load_text (prog [ "syscall:enter"; "syscall:exit"; "syscall:enter" ]));
  check "a rejected program is not loaded" true (Kprobe.Registry.find "dup" = None);
  (match Kprobe.Registry.load_text (prog [ "syscall:enter" ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "single attach rejected: %s" e);
  fire "syscall:enter" (fun () -> [| 1; 1; 0 |]);
  check "one fire counts once" true
    (contains (Option.get (Kprobe.Registry.render_maps "dup")) "map c (counter): 1");
  fire "syscall:enter" (fun () -> [| 1; 1; 0 |]);
  check "two fires count twice" true
    (contains (Option.get (Kprobe.Registry.render_maps "dup")) "map c (counter): 2");
  Kprobe.Registry.reset ()

(* --- Compiled code against the reference interpreter ---

   [Reference.exec] is the interpreter that ran probe programs before
   they were compiled at load: one loop over the instruction array,
   looking each map up by name. It is the semantics the compiler must
   keep. *)

module Reference = struct
  open Kprobe.Insn

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

  let exec ~(store : Kprobe.Maps.store) (prog : prog) pt (ctx : int array) =
    let fields = Sim.Trace.field_names pt in
    let code = prog.code in
    let regs = Array.make nregs 0L in
    let len = Array.length code in
    let operand = function Reg r -> regs.(r) | Imm v -> v in
    let slot = function
      | Cidx i -> i
      | Cname n ->
        let rec find i = if fields.(i) = n then i else find (i + 1) in
        find 0
    in
    let open Kprobe.Maps in
    let pc = ref 0 in
    (* The verifier proved all jumps strictly forward, so [pc] strictly
       increases and this loop executes at most [len] instructions. *)
    while !pc < len do
      let next = !pc + 1 in
      (match code.(!pc) with
      | Ld (r, o) ->
        regs.(r) <- operand o;
        pc := next
      | Ldctx (r, c) ->
        regs.(r) <- Int64.of_int ctx.(slot c);
        pc := next
      | Alu (op, r, o) ->
        regs.(r) <- alu_eval op regs.(r) (operand o);
        pc := next
      | Jmp n -> pc := next + n
      | Jcond (c, r, o, n) -> if cmp_eval c regs.(r) (operand o) then pc := next + n else pc := next
      | Count (m, o) ->
        let c = find store.counters m in
        c := Int64.add !c (operand o);
        pc := next
      | Upd (m, k, o) ->
        upd (find store.perkey m) regs.(k) (operand o);
        pc := next
      | Setk (m, k, o) ->
        setk (find store.perkey m) regs.(k) (operand o);
        pc := next
      | Get (r, m, k) ->
        regs.(r) <- get (find store.perkey m) regs.(k);
        pc := next
      | Hist (m, r) ->
        hist_rec (find store.hists m) regs.(r);
        pc := next
      | Histk (m, k, r) ->
        khist_rec (find store.khists m) regs.(k) regs.(r);
        pc := next
      | Ringp (m, k, r) ->
        ring_push (find store.rings m) regs.(k) regs.(r);
        pc := next
      | Emit (l, o) ->
        let v = operand o and key = prog.pname ^ "." ^ l in
        Sim.Stats.incr key;
        Sim.Trace.emit2
          (Sim.Trace.point Sim.Trace.Probe key [||] (fun f ->
               Printf.sprintf "v=%Ld" (Sim.Trace.join64 f.a f.b)))
          (Sim.Trace.hi32 v) (Sim.Trace.lo32 v);
        pc := next
      | Ret -> pc := len)
    done
end

let q_maps =
  Kprobe.Insn.[ ("c", Counter); ("p", Perkey); ("h", Histogram); ("k", Keyed_histogram); ("g", Ring) ]

let q_labels = [ "a"; "b" ]

(* Values that hit the edges of the int64 semantics: zero divisors,
   shifts of 63, 64 and beyond (also counts whose low 63 bits look
   small), wraparound, and a few small keys so perkey maps collide. *)
let q_edges =
  [ 0L; 1L; -1L; 2L; 3L; 63L; 64L; 65L; -64L; 1000L; 1_000_000L; Int64.max_int; Int64.min_int;
    Int64.add Int64.min_int 3L ]

let gen_value = QCheck.Gen.(oneof [ oneofl q_edges; map Int64.of_int (int_range (-50) 50); ui64 ])

(* Field values are native ints: the same edges, within 63 bits. *)
let q_field_edges =
  [ 0; 1; -1; 2; 3; 63; 64; 65; -64; 1000; 1_000_000; max_int; min_int; min_int + 3 ]

let gen_field = QCheck.Gen.(oneof [ oneofl q_field_edges; int_range (-50) 50; int ])

(* Every tracepoint with a field to read. *)
let q_points = List.filter (fun pt -> Sim.Trace.field_names pt <> [||]) (Sim.Trace.points ())

(* A program over the whole instruction set for one tracepoint: a
   few loads, then random instructions whose jumps land anywhere ahead.
   Sources are mostly registers written earlier in the text; a jump
   over such a write, or the odd unwritten source, makes a program the
   verifier rejects. *)
let gen_program =
  let open QCheck.Gen in
  let open Kprobe.Insn in
  let* pt = oneofl q_points in
  let fields = Sim.Trace.field_names pt in
  let nf = Array.length fields in
  let reg = int_range 0 (nregs - 1) in
  let ctxref =
    oneof
      [ map (fun i -> Cidx i) (int_range 0 (nf - 1)); map (fun n -> Cname n) (oneofl (Array.to_list fields)) ]
  in
  let* nload = int_range 1 6 in
  let* len = map (fun n -> nload + n) (int_range 1 30) in
  let insn pc written =
    let src = if written = [] then reg else frequency [ (19, oneofl written); (1, reg) ] in
    let operand = oneof [ map (fun r -> Reg r) src; map (fun v -> Imm v) gen_value ] in
    let load =
      oneof [ map2 (fun r o -> Ld (r, o)) reg operand; map2 (fun r c -> Ldctx (r, c)) reg ctxref ]
    in
    let room = len - pc - 1 in
    if pc < nload then load
    else
      frequency
        ((if room < 1 then []
          else
            [
              (2, map (fun n -> Jmp n) (int_range 1 room));
              ( 6,
                map2
                  (fun (c, r, o) n -> Jcond (c, r, o, n))
                  (triple (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ]) src operand)
                  (int_range 1 room) );
            ])
        @ [
            (4, load);
            ( 10,
              map3
                (fun op r o -> Alu (op, r, o))
                (oneofl [ Add; Sub; Mul; Div; And; Or; Lsl; Lsr ])
                src operand );
            (1, map (fun o -> Count ("c", o)) operand);
            (1, map2 (fun k o -> Upd ("p", k, o)) src operand);
            (1, map2 (fun k o -> Setk ("p", k, o)) src operand);
            (1, map2 (fun r k -> Get (r, "p", k)) reg src);
            (1, map (fun r -> Hist ("h", r)) src);
            (1, map2 (fun k r -> Histk ("k", k, r)) src src);
            (1, map2 (fun k r -> Ringp ("g", k, r)) src src);
            (1, map2 (fun l o -> Emit (l, o)) (oneofl q_labels) operand);
            (1, return Ret);
          ])
  in
  let rec body pc written acc =
    if pc = len then return (Array.of_list (List.rev acc))
    else
      let* i = insn pc written in
      body (pc + 1) (Kprobe.Verifier.writes i @ written) (i :: acc)
  in
  let* code = body 0 [] [] in
  let+ seed = int in
  (({ pname = "t.q"; attach = [ Sim.Trace.name pt ]; maps = q_maps; code }, pt), seed)

(* What one version leaves behind after a run of context sequences:
   rendered maps, emit stat counts and Probe ktrace records. *)
let observe prog run contexts =
  Sim.Stats.reset ();
  Sim.Trace.reset ();
  Sim.Trace.enable Sim.Trace.Probe;
  let store = Kprobe.Maps.create prog.Kprobe.Insn.maps in
  let run = run store in
  List.iter run contexts;
  let records =
    List.filter_map
      (fun r ->
        if r.Sim.Trace.cat = Sim.Trace.Probe then Some (r.Sim.Trace.name ^ " " ^ r.Sim.Trace.args)
        else None)
      (Sim.Trace.records ())
  in
  let stats = List.map (fun l -> Sim.Stats.get ("t.q." ^ l)) q_labels in
  Sim.Trace.reset ();
  (Kprobe.Maps.render store, stats, records)

let accepted = ref 0

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled_matches_reference" ~count:400 ~max_gen:4000
    (QCheck.make
       ~print:(fun ((p, _), seed) -> Printf.sprintf "seed %d\n%s" seed (Kprobe.Insn.render_prog p))
       gen_program)
    (fun ((prog, pt), seed) ->
      QCheck.assume (Kprobe.Verifier.verify prog = Ok ());
      incr accepted;
      let nf = Array.length (Sim.Trace.field_names pt) in
      let rng = Random.State.make [| seed |] in
      let contexts =
        List.init 12 (fun _ -> Array.init nf (fun _ -> QCheck.Gen.generate1 ~rand:rng gen_field))
      in
      let compiled store =
        match Kprobe.Vm.compile store prog pt with
        | Error e -> Alcotest.failf "a verified program failed to compile: %s" e
        | Ok code ->
          let buf = Array.make 6 0 in
          fun ctx ->
            Array.blit ctx 0 buf 0 nf;
            code buf
      in
      let reference store ctx = Reference.exec ~store prog pt ctx in
      let m1, s1, r1 = observe prog compiled contexts in
      let m2, s2, r2 = observe prog reference contexts in
      Sim.Stats.reset ();
      if m1 <> m2 then QCheck.Test.fail_reportf "maps differ:\ncompiled\n%s\nreference\n%s" m1 m2;
      if s1 <> s2 then QCheck.Test.fail_report "emit stat counts differ";
      if r1 <> r2 then QCheck.Test.fail_report "Probe ktrace records differ";
      true)

let test_compiled_matches_reference =
  let _, _, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2021 |]) prop_compiled_matches_reference
  in
  fun () ->
    accepted := 0;
    run ();
    if !accepted < 300 then Alcotest.failf "only %d generated programs passed the verifier" !accepted

(* --- Watchdogs --- *)

let test_hung_task_watchdog_catches_hang () =
  let o = Apps.Chaos.hang_run ~hog_ms:100 () in
  check "watchdog fired on the injected hang" true (o.Apps.Chaos.wd_fired > 0);
  check_int "victim still completed once rescued" 0 o.Apps.Chaos.victim_rc;
  check "wait histogram saw the starvation" true
    (contains o.Apps.Chaos.wd_maps "map wait_ms (hist)")

let test_irq_storm_watchdog_synthetic () =
  fresh ();
  (match
     Kprobe.Registry.load_text (Option.get (Kprobe.Templates.by_name "watchdog.irq_storm"))
   with
  | Error e -> Alcotest.failf "irq_storm rejected: %s" e
  | Ok _ -> ());
  (* 300 deliveries of vector 40 inside one 1ms window: over the
     200-per-window threshold, so the sentinel must fire (and re-arm). *)
  for i = 1 to 300 do
    fire "irq:entry" (fun () -> [| 40; 1000 + i |])
  done;
  check "storm sentinel fired" true (Sim.Stats.get "watchdog.irq_storm.fired" > 0);
  let maps = Option.get (Kprobe.Registry.render_maps "watchdog.irq_storm") in
  check "fired counter in maps" true (contains maps "map fired (counter): 1");
  Kprobe.Registry.reset ()

let test_syscall_slo_watchdog_end_to_end () =
  (* nanosleep(5ms) is far over the 1ms default budget; the SLO
     watchdog (installed by boot) must record the offender. *)
  let code =
    run_user (fun c ->
        ignore (Apps.Libc.nanosleep_us c 5000.);
        ignore (Apps.Libc.nanosleep_us c 5000.);
        0)
  in
  check_int "exit code" 0 code;
  check "SLO watchdog saw over-budget syscalls" true
    (Sim.Stats.get "watchdog.syscall_slo.fired" > 0);
  let maps = Option.get (Kprobe.Registry.render_maps "watchdog.syscall_slo") in
  check "offender ring populated" true (not (contains maps "0 entries"))

(* --- Syscall + /proc surface --- *)

let read_all c path =
  let fd = Apps.Libc.openf c path ~flags:0 ~mode:0 in
  if fd < 0 then None
  else begin
    let b = Buffer.create 1024 in
    let rec go () =
      let s = Apps.Libc.read_str c ~fd ~len:2048 in
      if s <> "" then begin
        Buffer.add_string b s;
        go ()
      end
    in
    go ();
    ignore (Apps.Libc.close c fd);
    Some (Buffer.contents b)
  end

let test_probe_syscalls () =
  let good =
    "prog user.counts\nattach syscall:enter\nmap perkey by_nr\nldctx r0, nr\n\
     upd by_nr, r0, 1\nret\n"
  in
  let bad = "prog user.bad\nattach syscall:enter\nldctx r0, lat_ns\nret\n" in
  let got_maps = ref "" and got_proc = ref "" and got_programs = ref "" in
  let code =
    run_user (fun c ->
        let id = Apps.Libc.probe_load c good in
        if id < 0 then 1
        else begin
          let rc_bad = Apps.Libc.probe_load c bad in
          if rc_bad <> -Aster.Errno.einval then 2
          else begin
            (* a few more syscalls for the attached program to observe *)
            ignore (Apps.Libc.getpid c);
            ignore (Apps.Libc.getpid c);
            match Apps.Libc.probe_read c "user.counts" with
            | Error _ -> 3
            | Ok maps -> (
              got_maps := maps;
              match Apps.Libc.probe_read c "user.gone" with
              | Ok _ -> 4
              | Error e when e <> Aster.Errno.enoent -> 5
              | Error _ -> (
                match read_all c "/proc/kprobe/user.counts/maps" with
                | None -> 6
                | Some proc_maps -> (
                  got_proc := proc_maps;
                  match read_all c "/proc/kprobe/programs" with
                  | None -> 7
                  | Some progs ->
                    got_programs := progs;
                    0)))
          end
        end)
  in
  check_int "exit code" 0 code;
  check "probe_read returned live map content" true (contains !got_maps "map by_nr (perkey)");
  check "the program observed its own loader's syscalls" true
    (contains !got_maps Printf.(sprintf "%d ->" Aster.Syscall_nr.probe_load));
  check "/proc/kprobe/<prog>/maps serves the same tables" true
    (contains !got_proc "map by_nr (perkey)");
  check "/proc/kprobe/programs lists the program" true (contains !got_programs "user.counts");
  check "/proc/kprobe/programs lists the watchdogs" true
    (contains !got_programs "watchdog.hung_task");
  check "rejection reason latched for the operator" true
    (contains !got_programs "last_error:")
  (* the reason itself names the broken whitelist *) ;
  check "last_error names the rejected field" true (contains !got_programs "not whitelisted")

(* /proc/kprobe/points lists every name a program can attach to, with
   the fields it may read there; each one must load. *)
let test_points_listing () =
  let listing = ref "" in
  let code =
    run_user (fun c ->
        match read_all c "/proc/kprobe/points" with
        | None -> 1
        | Some s ->
          listing := s;
          0)
  in
  check_int "exit code" 0 code;
  let points =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [] -> None
        | [ p ] -> Some (p, [])
        | [ p; fields ] -> Some (p, String.split_on_char ',' fields)
        | _ -> Alcotest.failf "malformed points line %S" line)
      (String.split_on_char '\n' !listing)
  in
  check "syscall:exit keeps the probe slot order" true
    (List.assoc_opt "syscall:exit" points
    = Some [ "nr"; "ret"; "lat_ns"; "pid"; "arg0"; "journal_commit" ]);
  check "dma:map is attachable" true (List.mem_assoc "dma:map" points);
  check "no probe point is listed" false
    (List.exists (fun (p, _) -> String.length p > 6 && String.sub p 0 6 = "probe:") points);
  let load p body =
    Kprobe.Registry.load_text (Printf.sprintf "prog t.points\nattach %s\n%sret\n" p body)
  in
  List.iter
    (fun (p, fields) ->
      check (p ^ " lists at most six distinct fields") true
        (List.length fields <= 6
        && List.length (List.sort_uniq compare fields) = List.length fields);
      List.iter
        (fun body ->
          match load p body with
          | Error e -> Alcotest.failf "attach %s with %S rejected: %s" p body e
          | Ok _ -> check (p ^ " unloads") true (Kprobe.Registry.unload "t.points"))
        ("ld r0, 0\n" :: List.map (Printf.sprintf "ldctx r0, %s\n") fields))
    points;
  expect_reject "a probe's own emit point" "/proc/kprobe/points"
    (load "probe:watchdog.hung_task.fired" "ld r0, 0\n");
  expect_reject "an unknown name" "unknown attach point 'nosuch:point'"
    (load "nosuch:point" "ld r0, 0\n")

let test_proc_kprobe_insns_disassembly () =
  let got = ref "" in
  let code =
    run_user (fun c ->
        match read_all c "/proc/kprobe/watchdog.hung_task/insns" with
        | None -> 1
        | Some s ->
          got := s;
          0)
  in
  check_int "exit code" 0 code;
  check "disassembly names the program" true (contains !got "watchdog.hung_task");
  check "disassembly lists instructions" true (contains !got "ldctx")

(* --- Satellite 1: writable /proc/ktrace --- *)

let test_proc_ktrace_writable () =
  let enabled_line s =
    (* the "enabled: <cats>" tail of the header line; the buffered and
       dropped counts before it legitimately drift between reads *)
    let line = match String.index_opt s '\n' with None -> s | Some i -> String.sub s 0 i in
    let marker = "enabled: " in
    let ml = String.length marker in
    let rec find i =
      if i + ml > String.length line then line
      else if String.sub line i ml = marker then
        String.sub line i (String.length line - i)
      else find (i + 1)
    in
    find 0
  in
  let failures = ref [] in
  let code =
    run_user (fun c ->
        let write_cmd cmd =
          let fd = Apps.Libc.openf c "/proc/ktrace" ~flags:1 ~mode:0 in
          if fd < 0 then -1000
          else begin
            let rc = Apps.Libc.write_str c ~fd cmd in
            ignore (Apps.Libc.close c fd);
            rc
          end
        in
        let header () =
          match read_all c "/proc/ktrace" with None -> "" | Some s -> enabled_line s
        in
        let expect_header cmd needle =
          if write_cmd cmd < 0 then failures := (cmd ^ ": write failed") :: !failures
          else begin
            let h = header () in
            if not (contains h needle) then
              failures := Printf.sprintf "%s: header %S lacks %S" cmd h needle :: !failures
          end
        in
        expect_header "none" "enabled: none";
        expect_header "syscall,blk" "enabled: syscall,blk";
        expect_header "+net" "net";
        expect_header "-syscall" "enabled: blk,net";
        expect_header "all" "probe";
        (* malformed commands fail with EINVAL and leave the mask alone *)
        let before = header () in
        if write_cmd "bogus_category" <> -Aster.Errno.einval then
          failures := "bogus category accepted" :: !failures;
        if write_cmd "+syscall,-bogus" <> -Aster.Errno.einval then
          failures := "bad incremental accepted" :: !failures;
        if header () <> before then failures := "failed write changed the mask" :: !failures;
        if write_cmd "none" < 0 then failures := "final none failed" :: !failures;
        0)
  in
  check_int "exit code" 0 code;
  (match !failures with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "; " (List.rev fs)));
  check_int "mask really reached the trace plane" 0 (Sim.Trace.mask_value ());
  Sim.Trace.reset ()

(* --- Satellite 3: /proc tables stay parseable after a chaos workload --- *)

let parse_kstat s =
  let lines = String.split_on_char '\n' s in
  List.iter
    (fun line ->
      if String.trim line <> "" && line <> Sim.Hist.summary_header then begin
        let toks =
          String.split_on_char ' ' line |> List.filter (fun t -> String.trim t <> "")
        in
        match toks with
        | [ _name; v ] -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> ()
          | Some n -> Alcotest.failf "kstat: negative counter %d in %S" n line
          | None -> Alcotest.failf "kstat: malformed counter row %S" line)
        | [ _name; count; p50; p90; p99; mx ] ->
          (match int_of_string_opt count with
          | Some n when n >= 0 -> ()
          | _ -> Alcotest.failf "kstat: malformed hist count in %S" line);
          List.iter
            (fun cell ->
              if cell <> "-" then
                match float_of_string_opt cell with
                | Some f when f >= 0. -> ()
                | _ -> Alcotest.failf "kstat: malformed hist cell %S in %S" cell line)
            [ p50; p90; p99; mx ]
        | _ -> Alcotest.failf "kstat: unexpected row shape %S" line
      end)
    lines

let parse_kprof s =
  match String.split_on_char '\n' s with
  | [] -> Alcotest.fail "kprof: empty"
  | header :: body ->
    check "kprof header present" true (contains header "# kprof:");
    List.iter
      (fun line ->
        if String.trim line <> "" then
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "kprof: malformed folded row %S" line
          | Some i -> (
            let stack = String.sub line 0 i in
            let cycles = String.sub line (i + 1) (String.length line - i - 1) in
            match int_of_string_opt cycles with
            | Some n when n > 0 && stack <> "" -> ()
            | _ -> Alcotest.failf "kprof: malformed folded row %S" line))
      body

let parse_faults s =
  List.iter
    (fun line ->
      if String.trim line <> "" && line <> "per-site injections:" then begin
        let toks =
          String.split_on_char ' ' line |> List.filter (fun t -> String.trim t <> "")
        in
        match toks with
        | [ _site; v ] -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> ()
          | _ -> Alcotest.failf "faults: malformed row %S" line)
        | _ -> Alcotest.failf "faults: unexpected row shape %S" line
      end)
    (String.split_on_char '\n' s)

let test_proc_tables_parse_after_chaos () =
  Sim.Prof.enable ();
  ignore (boot ());
  Sim.Fault.configure ~seed:7L [ ("blk.delay", 0.05); ("blk.io_error", 0.02) ];
  let kstat = ref "" and kprof = ref "" and faults = ref "" in
  let result = ref None in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"test" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/ext2/chaos.dat" ~flags:0o102 ~mode:0o644 in
         let rc =
           if fd < 0 then 1
           else begin
             let b = Bytes.make 4096 'y' in
             for _ = 1 to 24 do
               ignore (Apps.Libc.write c ~fd ~vaddr:(Apps.Libc.put_bytes c b) ~len:4096)
             done;
             ignore (Apps.Libc.fsync c fd);
             ignore (Apps.Libc.close c fd);
             match
               ( read_all c "/proc/kstat",
                 read_all c "/proc/kprof",
                 read_all c "/proc/faults" )
             with
             | Some a, Some b', Some f ->
               kstat := a;
               kprof := b';
               faults := f;
               0
             | _ -> 2
           end
         in
         result := Some rc;
         rc));
  Aster.Kernel.run ();
  Sim.Fault.disable ();
  Sim.Prof.disable ();
  check_int "exit code" 0 (match !result with Some rc -> rc | None -> -1);
  check "kstat non-empty" true (String.length !kstat > 0);
  parse_kstat !kstat;
  parse_kprof !kprof;
  check "faults quartet present" true (contains !faults "injected");
  parse_faults !faults

(* --- Satellite 2: typed empty-histogram percentiles --- *)

let test_empty_hist_percentile_is_none () =
  let h = Sim.Hist.create () in
  (match Sim.Hist.percentile h 99. with
  | None -> ()
  | Some v -> Alcotest.failf "empty histogram produced p99=%f" v);
  (match Sim.Hist.percentile_exn h 99. with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "percentile_exn on empty histogram returned %f" v);
  check "summary renders '-' cells for empty" true
    (contains (Sim.Hist.summary_line "empty" h) "-");
  Sim.Hist.record h 10.;
  match Sim.Hist.percentile h 50. with
  | Some _ -> ()
  | None -> Alcotest.fail "non-empty histogram must produce percentiles"

(* --- Determinism --- *)

(* One fio-style run with [extra] template programs staged at boot;
   returns (rendered maps of every loaded program, virtual end time). *)
let probed_run ~detach ~extra () =
  Aster.Kernel.boot_probes := List.filter_map Kprobe.Templates.by_name extra;
  ignore (boot ());
  Aster.Kernel.boot_probes := [];
  if detach then Kprobe.Registry.reset ();
  let result = ref None in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"fio" (fun uapi ->
         let c = Apps.Libc.make uapi in
         ignore (Apps.Fio.run c ~file:"/ext2/det.dat" ~mbytes:1);
         result := Some 0;
         0));
  Aster.Kernel.run ();
  check "workload finished" true (!result = Some 0);
  let maps =
    String.concat ""
      (List.map
         (fun n ->
           match Kprobe.Registry.render_maps n with
           | Some s -> Printf.sprintf "-- %s --\n%s" n s
           | None -> "")
         (Kprobe.Registry.list ()))
  in
  (maps, Sim.Time.now ())

let test_attached_same_seed_byte_identical () =
  let m1, t1 = probed_run ~detach:false ~extra:[ "blk.lat"; "syscall.count" ] () in
  let m2, t2 = probed_run ~detach:false ~extra:[ "blk.lat"; "syscall.count" ] () in
  check_str "rendered maps byte-identical across same-seed runs" m1 m2;
  check_int "virtual end times identical" t1 t2;
  check "probes actually observed the run" true (contains m1 "map lat_us (hist): count")

let test_detached_matches_baseline_virtual_time () =
  let _, t_watchdogs = probed_run ~detach:false ~extra:[] () in
  let detached_maps, t_detached = probed_run ~detach:true ~extra:[] () in
  check_str "detached run has no programs" "" detached_maps;
  check_int "watchdogs attached vs fully detached: same virtual end time" t_watchdogs t_detached

(* Positive case for the EXPERIMENTS.md worked recipe: the canned
   single-threaded workloads never read while the journal commits, so
   read_lat_by_fd legitimately renders 0 keys there. Here a reader
   races a committer — the committer blocks in Block.sync mid-commit,
   the reader's read(2) runs while Jbd.is_committing, and the
   journal_commit ctx flag lets the probe key the latency by fd. *)
let test_read_lat_by_fd_commit_overlap () =
  fresh ();
  ignore (boot ());
  (match Kprobe.Templates.by_name "read_lat_by_fd" with
  | None -> Alcotest.fail "read_lat_by_fd template missing"
  | Some text -> (
    match Kprobe.Registry.load_text text with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "template rejected: %s" e));
  let committer_done = ref false in
  (* The reader is spawned FIRST and creates its file before the
     journal storm starts: a journaled create would otherwise park on
     the commit gate (which only wakes while the next commit is already
     in flight) and serialize the whole reader behind the committer.
     The read loop itself takes no journal handles, so it interleaves
     with commit windows freely. *)
  ignore
    (Aster.Process.spawn_kernel_style ~name:"reader" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let wfd = Apps.Libc.openf c "/ext2/victim.bin" ~flags:0o101 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd:wfd (String.make 4096 'r'));
         ignore (Apps.Libc.close c wfd);
         let fd = Apps.Libc.openf c "/ext2/victim.bin" ~flags:0 ~mode:0 in
         let budget = ref 5000 in
         while (not !committer_done) && !budget > 0 do
           decr budget;
           ignore (Apps.Libc.lseek c ~fd ~off:0 ~whence:0);
           ignore (Apps.Libc.read_str c ~fd ~len:4096);
           ignore (Apps.Libc.nanosleep_us c 5.)
         done;
         ignore (Apps.Libc.close c fd);
         0));
  ignore
    (Aster.Process.spawn_kernel_style ~name:"committer" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/ext2/commits.bin" ~flags:0o101 ~mode:0o644 in
         let blob = String.make 4096 'j' in
         for _ = 1 to 16 do
           ignore (Apps.Libc.write_str c ~fd blob);
           ignore (Apps.Libc.fsync c fd)
         done;
         ignore (Apps.Libc.close c fd);
         committer_done := true;
         0));
  Aster.Kernel.run ();
  check "committer finished" true !committer_done;
  let maps =
    match Kprobe.Registry.render_maps "read_lat_by_fd" with
    | Some s -> s
    | None -> Alcotest.fail "program vanished from the registry"
  in
  check "some reads overlapped a commit" false
    (contains maps "map reads_in_commit (counter): 0");
  check "latency histogram keyed by the reader's fd" true
    (contains maps "map lat_us_by_fd (khist): 1 keys")

let () =
  Alcotest.run "kprobe"
    [
      ( "verifier",
        [
          Alcotest.test_case "backward_jump" `Quick test_reject_backward_jump;
          Alcotest.test_case "jump_overshoot" `Quick test_reject_jump_overshoot;
          Alcotest.test_case "oob_ctx_field" `Quick test_reject_oob_ctx_field;
          Alcotest.test_case "overlong_program" `Quick test_reject_overlong_program;
          Alcotest.test_case "foreign_map" `Quick test_reject_foreign_map;
          Alcotest.test_case "uninit_register" `Quick test_reject_uninitialised_register;
          Alcotest.test_case "structural" `Quick test_reject_structural;
          Alcotest.test_case "templates_verify" `Quick test_templates_all_verify;
        ] );
      ( "vm",
        [
          Alcotest.test_case "exec_and_maps" `Quick test_vm_exec_and_maps;
          Alcotest.test_case "ring_bounded" `Quick test_ring_bounded;
          Alcotest.test_case "detached_zero_cost" `Quick test_detached_fires_cost_nothing;
          Alcotest.test_case "emit_namespaced" `Quick test_emit_is_namespaced;
          Alcotest.test_case "duplicate_attach" `Quick test_reject_duplicate_attach;
          Alcotest.test_case "compiled_matches_reference" `Quick test_compiled_matches_reference;
        ] );
      ( "watchdogs",
        [
          Alcotest.test_case "hung_task_catch" `Quick test_hung_task_watchdog_catches_hang;
          Alcotest.test_case "irq_storm" `Quick test_irq_storm_watchdog_synthetic;
          Alcotest.test_case "syscall_slo" `Quick test_syscall_slo_watchdog_end_to_end;
        ] );
      ( "surface",
        [
          Alcotest.test_case "probe_syscalls" `Quick test_probe_syscalls;
          Alcotest.test_case "proc_insns" `Quick test_proc_kprobe_insns_disassembly;
          Alcotest.test_case "points_listing" `Quick test_points_listing;
          Alcotest.test_case "ktrace_writable" `Quick test_proc_ktrace_writable;
          Alcotest.test_case "proc_tables_parse" `Quick test_proc_tables_parse_after_chaos;
          Alcotest.test_case "read_lat_in_commit" `Quick test_read_lat_by_fd_commit_overlap;
          Alcotest.test_case "empty_hist_percentile" `Quick test_empty_hist_percentile_is_none;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "attached_identical" `Quick test_attached_same_seed_byte_identical;
          Alcotest.test_case "detached_baseline" `Quick
            test_detached_matches_baseline_virtual_time;
        ] );
    ]
