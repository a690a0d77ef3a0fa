(* Loaded-program registry: the kernel-side object store behind the
   probe_load/probe_read syscalls, /proc/kprobe, and the CLI. Loading
   is atomic — parse, verify, compile for every point the attach names
   match, then attach — so a rejected program leaves no trace beyond
   [last_error]. *)

type loaded = {
  prog : Insn.prog;
  store : Maps.store;
  points : Sim.Trace.point list; (* the points it is attached to *)
  loaded_at : Sim.Time.t;
}

let table : (string, loaded) Hashtbl.t = Hashtbl.create 8

let order : string list ref = ref [] (* load order, for deterministic listings *)

let last_error = ref ""

let find name = Hashtbl.find_opt table name

let list () = !order

let detach name l = List.iter (fun pt -> Sim.Trace.detach pt ~name) l.points

let unload name =
  match find name with
  | None -> false
  | Some l ->
    detach name l;
    Hashtbl.remove table name;
    order := List.filter (( <> ) name) !order;
    true

let reset () =
  Hashtbl.iter detach table;
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
          (fun pt acc ->
            match (acc, Vm.compile store prog pt) with
            | Ok l, Ok code -> Ok ((pt, code) :: l)
            | (Error _ as e), _ | _, (Error _ as e) -> e)
          (List.concat_map Sim.Trace.find prog.attach)
          (Ok [])
      in
      match compiled with
      | Error e ->
        last_error := e;
        Error e
      | Ok compiled ->
        ignore (unload prog.pname);
        let l = { prog; store; points = List.map fst compiled; loaded_at = Sim.Time.now () } in
        Hashtbl.replace table prog.pname l;
        order := !order @ [ prog.pname ];
        List.iter (fun (pt, code) -> Sim.Trace.attach pt ~name:prog.pname code) compiled;
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
             (String.concat "," l.prog.attach)))
    !order;
  if !last_error <> "" then Buffer.add_string b (Printf.sprintf "last_error: %s\n" !last_error);
  Buffer.contents b

(* One line per name a program can attach to, for /proc/kprobe/points:
   the name, then the fields it may read there, in slot order. A name
   matches every point declared with it (a single packet's net:tx and a
   burst's), so its fields are those every one of them has. *)
let render_points () =
  let b = Buffer.create 1024 in
  List.iter
    (fun pt ->
      match Sim.Trace.find (Sim.Trace.name pt) with
      | first :: rest when first == pt ->
        let everywhere f = List.for_all (fun q -> Array.mem f (Sim.Trace.field_names q)) rest in
        Buffer.add_string b
          (match List.filter everywhere (Array.to_list (Sim.Trace.field_names pt)) with
          | [] -> Sim.Trace.name pt ^ "\n"
          | fields -> Printf.sprintf "%-20s %s\n" (Sim.Trace.name pt) (String.concat "," fields))
      | _ -> ())
    (Sim.Trace.points ());
  Buffer.contents b
