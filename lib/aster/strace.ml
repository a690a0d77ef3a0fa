let counts : (int, int ref) Hashtbl.t = Hashtbl.create 64

let small : (int, int ref) Hashtbl.t = Hashtbl.create 8

let reset () =
  Hashtbl.reset counts;
  Hashtbl.reset small

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let record ~nr = bump counts nr

(* Entry and exit each fire one tracepoint, which feeds the trace ring
   and any attached probe; exit also feeds the latency histograms. None
   of it charges virtual cycles, so instrumented runs time identically. *)

let tp_enter =
  Sim.Trace.point Sim.Trace.Syscall "enter" [| "nr"; "pid"; "arg0" |] (fun f ->
      Printf.sprintf "nr=%d name=%s" f.a (Syscall_nr.name f.a))

let tp_exit =
  Sim.Trace.point Sim.Trace.Syscall "exit"
    [| "nr"; "ret"; "lat_ns"; "pid"; "arg0"; "journal_commit" |]
    (fun f ->
      let result =
        if f.b < 0 then Printf.sprintf "err=%s" (Errno.name (-f.b)) else Printf.sprintf "ret=%d" f.b
      in
      Printf.sprintf "nr=%d name=%s %s lat_us=%.3f" f.a (Syscall_nr.name f.a) result
        (float_of_int f.c /. 1000.))

let enter ~nr ~pid ~arg0 =
  record ~nr;
  Sim.Trace.emit3 tp_enter nr pid (Int64.to_int arg0)

let exit_ ~nr ~ret ~cycles ~pid ~arg0 ~journal_commit =
  Sim.Hist.observe "syscall" cycles;
  Sim.Hist.observe (Syscall_nr.scope_name nr) cycles;
  Sim.Trace.emit6 tp_exit nr (Int64.to_int ret) (Sim.Time.to_ns cycles) pid (Int64.to_int arg0)
    (Bool.to_int journal_commit)

let record_size ~nr ~size = if size <= 8 then bump small nr

let count ~nr = match Hashtbl.find_opt counts nr with Some r -> !r | None -> 0

let small_writes () =
  let get nr = match Hashtbl.find_opt small nr with Some r -> !r | None -> 0 in
  get Syscall_nr.pwrite64 + get Syscall_nr.write

let top n =
  Hashtbl.fold (fun nr r acc -> (Syscall_nr.name nr, !r) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)
