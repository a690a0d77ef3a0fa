type row = {
  submodule : string;
  tests : int;
  lines_covered : int;
  lines_total : int;
  unsafe_covered : int;
  unsafe_total : int;
  native_s : float;
  kernmiri_s : float;
}

(* The "interpretation" factor: each checked run re-executes the test
   under tracing several times and replays the two dynamic analyses,
   standing in for Miri's per-instruction interpretation. *)
let interpret_rounds = 12

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let run_corpus_once ~submodule =
  ignore (Corpus.run_submodule submodule)

let checked_pass ~submodule =
  Ostd.Probe.set_tracing true;
  for _ = 1 to interpret_rounds do
    run_corpus_once ~submodule;
    (* Re-validate the two analyses alongside, as KernMiri would. *)
    ignore (Cases.all ())
  done;
  Ostd.Probe.set_tracing false

let run () =
  Sim.Profile.set Sim.Profile.asterinas;
  (* Rows follow the instrumented mm submodules, like the paper's Table 10. *)
  let submodules = Ostd.Probe.submodules () in
  List.map
    (fun submodule ->
      let tests =
        List.length
          (List.filter (fun c -> c.Corpus.submodule = submodule) Corpus.cases)
      in
      (* Native timing: tracing off. *)
      let native_s = time (fun () -> run_corpus_once ~submodule) in
      (* Checked timing + coverage. *)
      Ostd.Probe.reset_hits ();
      let kernmiri_s = time (fun () -> checked_pass ~submodule) in
      let cov = Ostd.Probe.coverage ~submodule in
      {
        submodule;
        tests;
        lines_covered = cov.Ostd.Probe.hit;
        lines_total = cov.Ostd.Probe.total;
        unsafe_covered = cov.Ostd.Probe.unsafe_hit;
        unsafe_total = cov.Ostd.Probe.unsafe_total;
        native_s;
        kernmiri_s;
      })
    submodules

let totals rows =
  List.fold_left
    (fun acc r ->
      {
        submodule = "total";
        tests = acc.tests + r.tests;
        lines_covered = acc.lines_covered + r.lines_covered;
        lines_total = acc.lines_total + r.lines_total;
        unsafe_covered = acc.unsafe_covered + r.unsafe_covered;
        unsafe_total = acc.unsafe_total + r.unsafe_total;
        native_s = acc.native_s +. r.native_s;
        kernmiri_s = acc.kernmiri_s +. r.kernmiri_s;
      })
    {
      submodule = "total";
      tests = 0;
      lines_covered = 0;
      lines_total = 0;
      unsafe_covered = 0;
      unsafe_total = 0;
      native_s = 0.;
      kernmiri_s = 0.;
    }
    rows
