(** redis-benchmark-style host driver: for each Table 11 operation, run
    [requests] commands over [clients] persistent connections and report
    requests per second. *)

type result = { op : string; rps : float }

val run_op :
  host:Aster.Kernel.host ->
  op:string ->
  clients:int ->
  requests:int ->
  on_done:(result -> unit) ->
  unit
(** Spawn the client tasks for one op. Call before [Runner.run]. *)
