(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One run repeats fresh rounds of the workload (boot, server start,
   set-up, then the seeded closed-loop ops) until [--seconds] of host
   time have passed. Every round of the same seed must give identical
   virtual metrics and, within 2%, the same allocated words, so the
   virtual metrics are reported once and the host metrics as medians
   over the rounds.
   [--trace 0] prints the end-to-end metrics with every observability
   plane off; [--trace 1] alternates untraced and traced rounds and
   prints the per-layer table. The last line of stdout is one JSON
   object; the exit code is non-zero when any check fails. *)

type workload = Http_static | Kv_mixed | Fs_journal | Kv_observed

let workloads =
  [ ("http_static", Http_static); ("kv_mixed", Kv_mixed); ("fs_journal", Fs_journal); ("kv_observed", Kv_observed) ]

(* Ops per round and how many of them are warm-up. *)
let ops = function
  | Http_static -> 12000
  | Kv_mixed | Kv_observed -> 16 * 1000
  | Fs_journal -> 3000

let warmup = function
  | Http_static -> 128
  | Kv_mixed | Kv_observed -> Kv.preload_ops + (16 * 8)
  | Fs_journal -> 40

(* Observability planes for a round. [Profiled] is kprof + kspan;
   [Observed] adds every ktrace category and four staged probes. *)
type planes = Off | Profiled | Observed

let probe_names = [ "blk.lat"; "syscall.count"; "read_lat_by_fd"; "net.bytes" ]

let set_planes p =
  Aster.Kernel.boot_probes :=
    (if p = Observed then List.filter_map Kprobe.Templates.by_name probe_names else []);
  if p = Off then begin
    Sim.Prof.reset ();
    Sim.Span.disable ();
    Sim.Span.set_auto false
  end
  else begin
    Sim.Prof.enable ();
    Sim.Span.enable ();
    Sim.Span.set_auto true
  end;
  if p = Observed then Sim.Trace.enable_all () else Sim.Trace.disable_all ()

type round = {
  calib : float; (* mean in-window probe time, CPU s *)
  setup_calib : float; (* mean set-up probe time, CPU s *)
  virt : Meter.virt;
  ns_per_op : float;
  words_per_op : float;
  setup_s : float;
  boot_ms : float;
  kinds : (string * int) list;
  retries : int;
  layers : Layers.metric list;
  top : (string * int64) list;
  client_ns_per_op : float;
  sys : (string * Fsj.sys_cost) list;
  broken : string list; (* invariant breaks *)
}

let ns_since t0 = Int64.to_float (Int64.sub (Meter.wall_ns ()) t0)

(* Host times are reported at a reference host speed: rescaled by
   [calib_ref_s] over the mean time of the probes taken while they were
   measured (see [Meter.probe]). Raw times are printed beside them. *)
let calib_ref_s = 0.003

let run_round wl ~seed ~planes ~instr =
  set_planes planes;
  let ops = ops wl in
  let meter = Meter.create ~warmup:(warmup wl) ~total:ops in
  Meter.start_setup meter;
  let cpu_boot = Sys.time () in
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let boot_ms = (Sys.time () -. cpu_boot) *. 1e3 in
  let snaps = ref [] in
  let traced = planes <> Off && instr in
  if traced then begin
    meter.Meter.on_open <-
      (fun () ->
        Sim.Hist.reset ();
        snaps := [ Layers.snapshot () ]);
    meter.Meter.on_close <- (fun () -> snaps := Layers.snapshot () :: !snaps)
  end;
  let laps, sys =
    match wl with
    | Http_static -> (Http.start ~k ~meter ~seed ~instr, [])
    | Kv_mixed | Kv_observed -> (Kv.start ~k ~meter ~seed ~instr, [])
    | Fs_journal -> ([], Fsj.start ~meter ~seed ~instr)
  in
  Apps.Runner.run ();
  let broken = ref [] in
  let check ok msg = if not ok then broken := msg :: !broken in
  check (Meter.finished meter)
    (Printf.sprintf "round stalled: %d of %d ops completed" meter.Meter.completed ops);
  check (meter.Meter.wrong = 0) (Printf.sprintf "%d replies carried wrong bytes" meter.Meter.wrong);
  if wl = Fs_journal then
    List.iter (fun l -> check false ("fsck: " ^ l)) (Aster.Fsck.check ());
  if planes <> Off then begin
    check (Sim.Prof.conserved ()) "kprof conservation broken";
    let st = Sim.Stats.get in
    check
      (st "span.bio_created" = st "span.bio_completed")
      (Printf.sprintf "span.bio_created %d <> span.bio_completed %d" (st "span.bio_created")
         (st "span.bio_completed"));
    check
      (st "span.tx_created" = st "span.tx_done")
      (Printf.sprintf "span.tx_created %d <> span.tx_done %d" (st "span.tx_created") (st "span.tx_done"))
  end;
  let virt = Meter.virt meter in
  let layers, top =
    match !snaps with
    | [ s1; s0 ] ->
      let puts =
        if wl = Fs_journal then
          let plan = Fsj.make_plan ~seed ~ops in
          let n = ref 0 in
          Array.iteri (fun i op -> match op with Fsj.Put _ when i >= meter.Meter.warmup -> incr n | _ -> ()) plan;
          !n
        else 0
      in
      let inp = { Layers.ops = virt.Meter.ops; puts; mb = float_of_int meter.Meter.bytes /. 1e6; s0; s1 } in
      (Layers.read inp, Layers.top_syscalls inp)
    | _ -> ([], [])
  in
  let lap_ns = List.fold_left (fun acc l -> Int64.add acc l.Meter.acc) 0L laps in
  {
    calib = Meter.probe_s meter;
    setup_calib = Meter.setup_probe_s meter;
    virt;
    ns_per_op = Meter.host_ns_per_op meter;
    words_per_op = Meter.host_words_per_op meter;
    setup_s = meter.Meter.setup_cpu;
    boot_ms;
    kinds = Meter.kinds meter;
    retries = meter.Meter.retries;
    layers;
    top;
    client_ns_per_op = Pstats.per_op ~ops (Int64.to_float lap_ns);
    sys;
    broken = List.rev !broken;
  }

(* --- Output --- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_json ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " ms)

let median_of f rounds = Pstats.median (List.map f rounds)

(* A host time of round [r] at the reference speed: [scaled] for times
   inside the measured window, [scaled_setup] for set-up and boot. *)
let scaled r x = x *. calib_ref_s /. r.calib

let scaled_setup r x = x *. calib_ref_s /. r.setup_calib

let virt_equal (a : Meter.virt) (b : Meter.virt) =
  a.ops = b.ops && a.tput = b.tput && a.goodput = b.goodput && a.p50 = b.p50 && a.p99 = b.p99
  && a.failed = b.failed

let opt = function Some v -> v | None -> nan

let print_virt (v : Meter.virt) =
  let beyond = Pstats.beyond ~n:v.n_lat 99. in
  Printf.printf "  %-24s %14.3f %s\n" "throughput_ops_s" v.tput "ops/virt_s";
  Printf.printf "  %-24s %14.4f %s\n" "goodput_mb_s" v.goodput "MB/virt_s";
  Printf.printf "  %-24s %14.3f %s   (%d samples)\n" "latency_p50_us" (opt v.p50) "virt_us" v.n_lat;
  Printf.printf "  %-24s %14.3f %s   (%d samples, %d beyond the p99 rank)\n" "latency_p99_us"
    (opt v.p99) "virt_us" v.n_lat beyond;
  Printf.printf "  %-24s %s\n" "latency deciles (virt_us)"
    (String.concat " " (List.map (Printf.sprintf "%.1f") v.deciles));
  Printf.printf "  %-24s %14.6f %s   (%d failed of %d attempted)\n" "failed_op_frac"
    (Pstats.failure_frac ~failed:v.failed ~attempted:v.attempted)
    "ratio" v.failed v.attempted

(* --- Runs --- *)

type args = { wl : workload; wl_name : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: bench.exe --workload {http_static|kv_mixed|fs_journal|kv_observed} --seed N \
     --seconds S --trace {0|1}";
  exit 2

let parse argv =
  let wl = ref None and seed = ref None and seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match List.assoc_opt w workloads with Some x -> wl := Some (w, x) | None -> usage ());
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      if !seed = None then usage ();
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0. -> seconds := s | _ -> usage ());
      go rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!wl, !seed) with
  | Some (wl_name, wl), Some seed -> { wl; wl_name; seed; seconds = !seconds; trace = !trace }
  | _ -> usage ()

(* Repeat [f] until the host deadline, at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Meter.wall_ns () in
  let rec go n acc =
    if n >= min && ns_since t0 /. 1e9 >= seconds then List.rev acc else go (n + 1) (f n :: acc)
  in
  go 0 []

let main () =
  let a = parse Sys.argv in
  Apps.Libc.install_child_resolver ();
  let round ?(wl = a.wl) ~planes ~instr () = run_round wl ~seed:a.seed ~planes ~instr in
  let plain_planes = if a.wl = Kv_observed then Observed else Off in
  let broken = ref [] in
  let fail msg = broken := msg :: !broken in
  Printf.printf "perfbench %s  seed=%d  ops/round=%d (warm-up %d)  trace=%d\n%!" a.wl_name a.seed
    (ops a.wl) (warmup a.wl) (if a.trace then 1 else 0);
  (* The rounds whose virtual metrics must all agree, and the
     untraced ones whose host metrics are reported. *)
  let measured, traced, reference =
    if not a.trace then
      (* kv_observed also runs one kv_mixed round: the same traffic with
         the planes off must give identical virtual metrics. *)
      let reference =
        if a.wl = Kv_observed then [ round ~wl:Kv_mixed ~planes:Off ~instr:false () ] else []
      in
      (repeat ~seconds:a.seconds ~min:3 (fun _ -> round ~planes:plain_planes ~instr:false ()), [], reference)
    else
      let pairs =
        repeat ~seconds:a.seconds ~min:1 (fun _ ->
            let u =
              round ~wl:(if a.wl = Kv_observed then Kv_mixed else a.wl) ~planes:Off ~instr:false ()
            in
            let t =
              round ~planes:(if a.wl = Kv_observed then Observed else Profiled) ~instr:true ()
            in
            (u, t))
      in
      (List.map fst pairs, List.map snd pairs, [])
  in
  let all = reference @ measured @ traced in
  let first = List.hd measured in
  List.iteri
    (fun i r ->
      Printf.printf
        "  round %-2d probe %.4f s  setup %.4f s (raw %.4f, probe %.4f)  host %.1f ns/op (raw %.1f)  %.3f words/op\n"
        i r.calib (scaled_setup r r.setup_s) r.setup_s r.setup_calib (scaled r r.ns_per_op) r.ns_per_op
        r.words_per_op)
    measured;
  List.iteri
    (fun i r ->
      List.iter (fun b -> fail (Printf.sprintf "round %d: %s" i b)) r.broken;
      if not (virt_equal r.virt first.virt) then
        fail (Printf.sprintf "round %d: virtual metrics differ from round 0 of the same seed" i))
    all;
  (* Allocation repeats from the second round of a kind on; the first
     round of a process also pays one-time lazy set-up. Rounds of one
     seed were measured to agree within 1% (the source of that residue
     is not identified), so "the same" means within 2%. *)
  let same_words rs =
    match rs with
    | _ :: r1 :: rest ->
      List.for_all (fun r -> Float.abs (r.words_per_op -. r1.words_per_op) <= 2e-2 *. r1.words_per_op) rest
    | _ -> true
  in
  if not (same_words measured) then fail "host_words_per_op differs between rounds of the same seed";
  let ops_total = List.fold_left (fun acc r -> acc + r.virt.Meter.attempted) 0 all in
  let failed_total = List.fold_left (fun acc r -> acc + r.virt.Meter.failed) 0 all in
  let v = first.virt in
  Printf.printf "rounds: %d measured%s%s\n" (List.length measured)
    (if traced = [] then "" else Printf.sprintf ", %d traced" (List.length traced))
    (if reference = [] then "" else ", 1 kv_mixed reference");
  Printf.printf "virtual end-to-end (identical in every round):\n";
  print_virt v;
  let kinds = first.kinds in
  Printf.printf "  failures by kind: %s\n"
    (if kinds = [] then "none"
     else String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) kinds));
  Printf.printf "  client connect retries: %d\n" first.retries;
  if v.p50 = None || v.p99 = None then fail "a latency percentile has too few samples or lands on a failed op";
  let host_ns = median_of (fun r -> scaled r r.ns_per_op) measured in
  let host_words = median_of (fun r -> r.words_per_op) measured in
  let setup = median_of (fun r -> scaled_setup r r.setup_s) measured in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let virt_metrics =
    [
      ("throughput_ops_s", v.tput, "ops/virt_s");
      ("goodput_mb_s", v.goodput, "MB/virt_s");
      ("latency_p50_us", opt v.p50, "virt_us");
      ("latency_p99_us", opt v.p99, "virt_us");
    ]
  in
  let host_metrics =
    [
      ("host_ns_per_op", host_ns, "ns");
      ("host_words_per_op", host_words, "words");
      ("host_peak_heap_mb", heap_mb, "MB");
      ("setup_s", setup, "s");
    ]
  in
  Printf.printf "host (median of %d rounds; times at the reference speed, raw %.1f ns/op at probe %.4f s):\n"
    (List.length measured)
    (median_of (fun r -> r.ns_per_op) measured)
    (median_of (fun r -> r.calib) measured);
  List.iter (fun (n, x, u) -> Printf.printf "  %-24s %14.4f %s\n" n x u) host_metrics;
  let metrics =
    if not a.trace then virt_metrics @ host_metrics
    else begin
      let t = List.hd traced in
      let traced_ns = median_of (fun r -> scaled r r.ns_per_op) traced in
      let overhead = (traced_ns /. host_ns) -. 1. in
      Printf.printf "traced pass: %s; virtual metrics identical to the untraced rounds\n"
        (if a.wl = Kv_observed then "ktrace all + kprof + kspan + 4 probes, vs kv_mixed untraced"
         else "kprof + kspan");
      Printf.printf "  top syscalls by inclusive cycles per op:";
      List.iter
        (fun (s, c) ->
          Printf.printf " %s=%.0f" s (Pstats.per_op ~ops:t.virt.Meter.ops (Int64.to_float c)))
        t.top;
      print_newline ();
      let sys_metrics =
        List.concat_map
          (fun (kind, _) ->
            let per_call f =
              median_of
                (fun r ->
                  match List.assoc_opt kind r.sys with
                  | Some c -> Pstats.per ~base:(float_of_int c.Fsj.calls) (f r c)
                  | None -> 0.)
                traced
            in
            [
              (Printf.sprintf "host.sys.%s_ns" kind, per_call (fun r c -> scaled r (Int64.to_float c.Fsj.ns)), "ns", "per call");
              (Printf.sprintf "host.sys.%s_words" kind, per_call (fun _ c -> c.Fsj.words), "words", "per call");
            ])
          Fsj.sys_kinds
      in
      let host_layer =
        [
          ("host.boot_ms", median_of (fun r -> scaled_setup r r.boot_ms) (measured @ traced), "ms", "per boot");
          ("host.raw_ns_per_op", median_of (fun r -> r.ns_per_op) measured, "ns", "per op, untraced, not rescaled");
          ("host.client_ns_per_op", median_of (fun r -> scaled r r.client_ns_per_op) traced, "ns", "per op");
          ("host.probe_ms", median_of (fun r -> r.calib *. 1e3) (measured @ traced), "ms", "raw probe time per round");
        ]
        @ sys_metrics
        @ [ ("host.trace_overhead_frac", overhead, "ratio", "traced / untraced host_ns_per_op - 1") ]
      in
      let rows =
        List.map (fun m -> (m.Layers.name, m.Layers.value, m.Layers.unit_, m.Layers.base)) t.layers
        @ host_layer
      in
      Printf.printf "  %-34s %16s  %-8s %s\n" "per-layer metric" "value" "unit" "base";
      List.iter (fun (n, x, u, b) -> Printf.printf "  %-34s %16.4f  %-8s %s\n" n x u b) rows;
      List.map (fun (n, x, u, _) -> (n, x, u)) rows
    end
  in
  let broken = List.rev !broken in
  List.iter (fun b -> Printf.printf "CHECK FAILED: %s\n" b) broken;
  if broken = [] then print_endline "checks: all passed";
  let correct = broken = [] && List.for_all (fun (_, x, _) -> Float.is_finite x) metrics in
  print_json ~correct ~attempted:ops_total ~failed:failed_total metrics;
  exit (if correct then 0 else 1)

let () = main ()
