(* Self-tests of the benchmark's statistics rules and client-side
   accounting: dune build @perfbench/runtest *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let seq n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* Nearest rank: p50 of 1..100 is 50, p99 is 99, p100 is the max. *)
  let s = seq 100 in
  check "p50 of 1..100" (Pstats.percentile s 50. = Some 50.);
  check "p99 of 1..100" (Pstats.percentile s 99. = Some 99.);
  check "p100 is the max" (Pstats.percentile s 100. = Some 100.);
  check "p0 clamps to the min" (Pstats.percentile s 0. = Some 1.);
  check "empty has no percentile" (Pstats.percentile [||] 50. = None);
  check "single sample" (Pstats.percentile [| 7. |] 99. = Some 7.);
  (* p99 needs at least ten samples beyond its rank. *)
  check "1000 samples: 10 beyond p99" (Pstats.beyond ~n:1000 99. = 10);
  check "1000 samples report p99" (Pstats.reportable ~n:1000 99.);
  check "999 samples do not report p99" (not (Pstats.reportable ~n:999 99.));
  check "100 samples do not report p99" (not (Pstats.reportable ~n:100 99.));
  check "20 samples report p50" (Pstats.reportable ~n:20 50.);
  check "19 samples do not report p50" (not (Pstats.reportable ~n:19 50.));
  check "no samples report nothing" (not (Pstats.reportable ~n:0 50.));
  (* A failed op is an infinite latency: it misses every limit. *)
  let with_fail = Pstats.sorted_copy (Array.append (seq 999) [| infinity |]) in
  check "failed op lands beyond p99" (Pstats.percentile with_fail 99. = Some 990.);
  check "failed op is the p100" (Pstats.percentile with_fail 100. = Some infinity);
  (* Failure fraction is failed over attempted. *)
  check "failure frac" (close (Pstats.failure_frac ~failed:1 ~attempted:6000) (1. /. 6000.));
  check "no failures" (Pstats.failure_frac ~failed:0 ~attempted:10 = 0.);
  check "nothing attempted" (Pstats.failure_frac ~failed:0 ~attempted:0 = 0.);
  (* Per-op normalisation, and an empty base reads 0 rather than nan. *)
  check "per op" (close (Pstats.per_op ~ops:4 10.) 2.5);
  check "per op, no ops" (Pstats.per_op ~ops:0 10. = 0.);
  check "per base" (close (Pstats.per ~base:0.5 3.) 6.);
  (* Median as Python's statistics.median. *)
  check "median odd" (Pstats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Pstats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  (* The meter: a 404 (as the known open(2) EFAULT gives) is a failed op
     of its own kind. It is counted among the attempted ops, warm-up
     included, carries no payload and has an infinite latency. It is
     not a wrong answer, so it does not make the run incorrect. *)
  let m = Meter.create ~warmup:1 ~total:4 in
  let op r = Meter.complete m (Option.get (Meter.issue m)) r in
  op (Ok 7);
  op (Error (Meter.Status 404));
  op (Ok 100);
  op (Ok 100);
  check "no op beyond the quota" (Meter.issue m = None);
  check "meter finished" (Meter.finished m);
  check "404 counted by kind" (Meter.kinds m = [ ("http_404", 1) ]);
  check "404 is not a wrong answer" (m.Meter.wrong = 0);
  check "404 latency is infinite" (m.Meter.lat.(0) = infinity);
  check "payload of timed successes only" (m.Meter.bytes = 200);
  let v = Meter.virt m in
  check "attempted counts every op" (v.Meter.attempted = 4 && v.Meter.ops = 3);
  check "failed op frac" (close (Pstats.failure_frac ~failed:v.Meter.failed ~attempted:v.Meter.attempted) 0.25);
  let w = Meter.create ~warmup:0 ~total:2 in
  Meter.complete w (Option.get (Meter.issue w)) (Error Meter.Mismatch);
  check "mismatch is a wrong answer" (w.Meter.wrong = 1 && Meter.kinds w = [ ("mismatch", 1) ]);
  (* The speed probe allocates nothing on the OCaml heap, beyond the
     boxed floats of its own timing, so it never runs the GC. *)
  let w0 = Gc.minor_words () in
  ignore (Meter.probe ());
  check "the probe does not allocate" (Gc.minor_words () -. w0 < 64.);
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: all passed"
