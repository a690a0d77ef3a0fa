(* Loaded-program registry: the kernel-side object store behind the
   probe_load/probe_read syscalls, /proc/kprobe, and the CLI. Loading
   is atomic — parse, verify, compile for every attach point, then
   attach — so a rejected program leaves no trace beyond
   [last_error]. *)

type loaded = {
  prog : Insn.prog;
  store : Maps.store;
  loaded_at : Sim.Time.t;
}

let table : (string, loaded) Hashtbl.t = Hashtbl.create 8

let order : string list ref = ref [] (* load order, for deterministic listings *)

let last_error = ref ""

let find name = Hashtbl.find_opt table name

let list () = !order

let unload name =
  match find name with
  | None -> false
  | Some _ ->
    Sim.Trace.detach_name name;
    Hashtbl.remove table name;
    order := List.filter (( <> ) name) !order;
    true

let reset () =
  List.iter (fun name -> Sim.Trace.detach_name name) !order;
  Hashtbl.reset table;
  order := [];
  last_error := ""

(* Load from program text. Returns the program name, or the rejection
   reason (also latched in [last_error]). Reloading a name replaces
   the previous instance. *)
let load_text text : (string, string) result =
  match Parse.parse text with
  | Error e ->
    last_error := e;
    Error e
  | Ok prog -> (
    match Verifier.verify prog with
    | Error e ->
      last_error := e;
      Error e
    | Ok () -> (
      let store = Maps.create prog.maps in
      let compiled =
        List.fold_right
          (fun ap acc ->
            match (acc, Vm.compile store prog ap) with
            | Ok l, Ok code -> Ok ((ap, code) :: l)
            | (Error _ as e), _ | _, (Error _ as e) -> e)
          prog.attach (Ok [])
      in
      match compiled with
      | Error e ->
        last_error := e;
        Error e
      | Ok compiled ->
        ignore (unload prog.pname);
        let l = { prog; store; loaded_at = Sim.Time.now () } in
        Hashtbl.replace table prog.pname l;
        order := !order @ [ prog.pname ];
        List.iter (fun (ap, code) -> Sim.Trace.attach ap ~name:prog.pname code) compiled;
        last_error := "";
        Ok prog.pname))

let render_maps name =
  match find name with None -> None | Some l -> Some (Maps.render l.store)

let render_prog name =
  match find name with None -> None | Some l -> Some (Insn.render_prog l.prog)

(* One line per program, for /proc/kprobe/programs and `probe list`. *)
let render_list () =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %6s %6s %s\n" "name" "insns" "maps" "attach");
  List.iter
    (fun name ->
      match find name with
      | None -> ()
      | Some l ->
        Buffer.add_string b
          (Printf.sprintf "%-28s %6d %6d %s\n" name
             (Array.length l.prog.code)
             (List.length l.prog.maps)
             (String.concat "," (List.map Sim.Trace.attach_name l.prog.attach))))
    !order;
  if !last_error <> "" then Buffer.add_string b (Printf.sprintf "last_error: %s\n" !last_error);
  Buffer.contents b
