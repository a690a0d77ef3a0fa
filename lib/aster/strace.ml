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

(* ktrace rebase: the counters above stay, but entry/exit also feed the
   trace ring and the latency histograms. Neither charges virtual
   cycles, so instrumented runs time identically. *)

let tp_enter =
  Sim.Trace.point Sim.Trace.Syscall "enter" (fun f ->
      Printf.sprintf "nr=%d name=%s" f.a (Syscall_nr.name f.a))

(* Fields: nr, the 64-bit return value as two halves, latency cycles. *)
let tp_exit =
  Sim.Trace.point Sim.Trace.Syscall "exit" (fun f ->
      let ret = Sim.Trace.join64 f.b f.c in
      let result =
        if Int64.compare ret 0L < 0 then
          Printf.sprintf "err=%s" (Errno.name (Int64.to_int (Int64.neg ret)))
        else Printf.sprintf "ret=%Ld" ret
      in
      Printf.sprintf "nr=%d name=%s %s lat_us=%.3f" f.a (Syscall_nr.name f.a) result
        (Sim.Time.to_us f.d))

let enter ~nr =
  record ~nr;
  Sim.Trace.emit1 tp_enter nr

let exit_ ~nr ~ret ~cycles =
  Sim.Hist.observe "syscall" cycles;
  Sim.Hist.observe (Syscall_nr.scope_name nr) cycles;
  Sim.Trace.emit4 tp_exit nr (Sim.Trace.hi32 ret) (Sim.Trace.lo32 ret) cycles

let record_size ~nr ~size = if size <= 8 then bump small nr

let count ~nr = match Hashtbl.find_opt counts nr with Some r -> !r | None -> 0

let small_writes () =
  let get nr = match Hashtbl.find_opt small nr with Some r -> !r | None -> 0 in
  get Syscall_nr.pwrite64 + get Syscall_nr.write

let top n =
  Hashtbl.fold (fun nr r acc -> (Syscall_nr.name nr, !r) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)
