let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let mk ?(unsafe = false) ?(toolchain = false) ?(deps = []) ?(frac = 1.0) name loc =
  {
    Tcbaudit.Crate_graph.name;
    loc;
    linked_fraction = frac;
    uses_unsafe = unsafe;
    toolchain;
    deps;
  }

let test_rule2_unsafe_in_tcb () =
  let g = Tcbaudit.Crate_graph.build [ mk ~unsafe:true "a" 100; mk "b" 200 ] in
  check "a in tcb" true (Tcbaudit.Crate_graph.is_tcb g "a");
  check "b out" false (Tcbaudit.Crate_graph.is_tcb g "b")

let test_rule3_deps_join () =
  let g =
    Tcbaudit.Crate_graph.build
      [ mk ~unsafe:true ~deps:[ "util" ] "driver" 100; mk "util" 50; mk "app" 70 ]
  in
  check "dep joins tcb" true (Tcbaudit.Crate_graph.is_tcb g "util");
  check "unrelated stays out" false (Tcbaudit.Crate_graph.is_tcb g "app")

let test_rule3_transitive () =
  let g =
    Tcbaudit.Crate_graph.build
      [ mk ~unsafe:true ~deps:[ "b" ] "a" 10; mk ~deps:[ "c" ] "b" 10; mk "c" 10 ]
  in
  check "transitive dep" true (Tcbaudit.Crate_graph.is_tcb g "c")

let test_rule1_toolchain_excluded () =
  let g =
    Tcbaudit.Crate_graph.build
      [ mk ~unsafe:true ~deps:[ "core" ] "k" 100; mk ~unsafe:true ~toolchain:true "core" 90000 ]
  in
  check "toolchain not in tcb" false (Tcbaudit.Crate_graph.is_tcb g "core");
  check_int "toolchain excluded from totals" 100 (Tcbaudit.Crate_graph.total_lcs g)

let test_lcs_fraction () =
  let g = Tcbaudit.Crate_graph.build [ mk ~frac:0.25 "x" 1000 ] in
  check_int "linked fraction applies" 250 (Tcbaudit.Crate_graph.lcs g "x")

let test_duplicate_rejected () =
  check "duplicate raises" true
    (try
       ignore (Tcbaudit.Crate_graph.build [ mk "a" 1; mk "a" 2 ]);
       false
     with Invalid_argument _ -> true)

let test_missing_dep_rejected () =
  check "missing dep raises" true
    (try
       ignore (Tcbaudit.Crate_graph.build [ mk ~deps:[ "ghost" ] "a" 1 ]);
       false
     with Invalid_argument _ -> true)

let test_table9_matches_paper () =
  List.iter
    (fun (name, total, tcb) ->
      let g = List.assoc name Tcbaudit.Datasets.table9 in
      check_int (name ^ " total") total (Tcbaudit.Crate_graph.total_lcs g);
      check_int (name ^ " tcb") tcb (Tcbaudit.Crate_graph.tcb_lcs g))
    [
      ("RedLeaf", 25992, 17182);
      ("Theseus", 70468, 43978);
      ("Tock", 6628, 2903);
      ("Asterinas", 75285, 10571);
    ]

let test_table1_fractions () =
  List.iter
    (fun (name, u, t) ->
      let g = List.assoc name Tcbaudit.Datasets.table1 in
      let mu, mt = Tcbaudit.Crate_graph.unsafe_crate_fraction g in
      check_int (name ^ " unsafe") u mu;
      check_int (name ^ " total") t mt)
    [ ("Linux", 6, 11); ("Tock", 91, 98); ("RedLeaf", 36, 58); ("Theseus", 54, 171) ]

let test_growth_shapes () =
  let fa = Tcbaudit.Growth.fit_quadratic Tcbaudit.Growth.asterinas_series in
  let fo = Tcbaudit.Growth.fit_linear Tcbaudit.Growth.ostd_series in
  check "kernel growth is super-linear" true (fa.Tcbaudit.Growth.quadratic > 0.01);
  check "ostd slope is small" true (fo.Tcbaudit.Growth.slope < 0.5);
  let last l = List.nth l (List.length l - 1) in
  check "final sizes match the paper's Fig. 7 scale" true
    ((last Tcbaudit.Growth.asterinas_series).Tcbaudit.Growth.kloc > 80.
    && (last Tcbaudit.Growth.ostd_series).Tcbaudit.Growth.kloc < 12.)

let test_growth_fit_quality () =
  let fa = Tcbaudit.Growth.fit_quadratic Tcbaudit.Growth.asterinas_series in
  check "quadratic fits its own generator" true (fa.Tcbaudit.Growth.rmse < 0.01);
  let p36 = Tcbaudit.Growth.project fa 36 in
  check "projection hits the end point" true (abs_float (p36 -. 89.9) < 1.0)

let test_self_audit () =
  let r = Tcbaudit.Self_audit.run () in
  check "repo found" true (r.Tcbaudit.Self_audit.total_loc > 1000);
  check "core is TCB" true
    (List.exists
       (fun (e : Tcbaudit.Self_audit.entry) -> e.library = "core" && e.tcb)
       r.Tcbaudit.Self_audit.entries);
  check "aster is not TCB" true
    (List.exists
       (fun (e : Tcbaudit.Self_audit.entry) -> e.library = "aster" && not e.tcb)
       r.Tcbaudit.Self_audit.entries);
  check "kprobe, which aster links, is counted outside the TCB" true
    (List.exists
       (fun (e : Tcbaudit.Self_audit.entry) -> e.library = "kprobe" && not e.tcb)
       r.Tcbaudit.Self_audit.entries);
  check "relative sane" true
    (r.Tcbaudit.Self_audit.relative > 0. && r.Tcbaudit.Self_audit.relative < 1.)

(* The TCB's absolute size, in the LoC [tcb_audit self] reports. The
   ratio cannot gate it: deleting code outside the TCB raises the ratio,
   and the TCB can grow while the ratio falls. The bound was set 1%
   above a measured 7,715; the count is now 7,720. A change that grows the TCB past it
   raises the bound and says why in CHANGES.md; one that shrinks the
   TCB lowers it. *)
let tcb_budget = 7_792

let test_tcb_budget () =
  let r = Tcbaudit.Self_audit.run () in
  Printf.printf "TCB: %d LoC (budget %d)\n" r.Tcbaudit.Self_audit.tcb_loc tcb_budget;
  check "TCB LoC within its budget" true (r.Tcbaudit.Self_audit.tcb_loc <= tcb_budget)

(* [needle] occurs in [s] at or after [i]. *)
let names_at needle s i =
  let n = String.length needle in
  let rec at i = i + n <= String.length s && (String.sub s i n = needle || at (i + 1)) in
  at i

(* Source file [f] contains [needle]. *)
let names needle f = names_at needle (In_channel.with_open_bin f In_channel.input_all) 0

(* Virtual time is a native int, read with [Sim.Time.now]. The boxed
   int64 read, [Sim.Clock.now], is a view for the repository benchmark
   alone: no file under lib/ but the clock's own may name it. *)
let test_no_boxed_clock_reads () =
  let files = Tcbaudit.Self_audit.lib_sources () in
  check "lib/ scanned" true (List.length files > 100);
  Alcotest.(check (list string))
    "lib/ files naming the int64 clock view" []
    (List.filter
       (fun f -> (not (String.ends_with ~suffix:"lib/sim/clock.ml" f)) && names ("Clock" ^ ".now") f)
       files)

(* File systems keep only the mechanics of the namespace: the VFS makes
   Linux's checks and invalidates its own dentries. No file system may
   name a namespace errno or drop a dentry. *)
let test_fs_decide_no_namespace_rule () =
  let fs = [ "ramfs.ml"; "ext2.ml"; "devfs.ml"; "procfs.ml" ] in
  let files =
    List.filter
      (fun f -> List.mem (Filename.basename f) fs)
      (Tcbaudit.Self_audit.lib_sources ())
  in
  check_int "the four file systems scanned" 4 (List.length files);
  let needles =
    List.map (( ^ ) "Errno.") [ "eexist"; "enotempty"; "eisdir"; "enotdir"; "exdev"; "ebusy"; "eloop" ]
    @ [ "Vfs.dcache_invalidate" ]
  in
  Alcotest.(check (list string))
    "namespace rules decided in a file system" []
    (List.concat_map
       (fun f ->
         List.filter_map
           (fun n -> if names n f then Some (Filename.basename f ^ ": " ^ n) else None)
           needles)
       files)

(* The TCB makes no kspan calls: kspan takes on-CPU time from kprof's
   edges and its scheduler edges from tracepoints. No file in lib/core
   or lib/machine names kspan's module, and the clock declares no
   observer: no value in its interface takes a function. *)
let test_tcb_no_kspan () =
  let in_dir d f = Filename.basename (Filename.dirname f) = d in
  let files = Tcbaudit.Self_audit.lib_sources () in
  Alcotest.(check (list string))
    "TCB files naming kspan" []
    (List.filter
       (fun f -> (in_dir "core" f || in_dir "machine" f) && names ("Sim." ^ "Span") f)
       files);
  let clock =
    List.find (fun f -> in_dir "sim" f && Filename.basename f = "clock.mli") files
  in
  let observers =
    In_channel.with_open_bin clock In_channel.input_lines
    |> List.filter (fun l ->
           String.starts_with ~prefix:"val " l
           &&
           match String.index_opt l '(' with
           | Some i -> names_at "->" l i
           | None -> false)
  in
  Alcotest.(check (list string)) "clock values taking a function" [] observers

(* Every value a library exports is named somewhere outside its own
   module: an export nothing calls is code for nothing, and in the TCB,
   TCB for nothing. A name counts as an identifier token in any .ml or
   .mli under lib, bench, bin, test, examples or perfbench, other than
   the module's own two files. *)
let test_tcb_exports_used () =
  let ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let files =
    List.concat_map Tcbaudit.Self_audit.tree_sources
      [ "lib"; "bench"; "bin"; "test"; "examples"; "perfbench" ]
  in
  (* Identifier -> the files naming it. *)
  let seen : (string, string list) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun f ->
      let s = In_channel.with_open_bin f In_channel.input_all in
      let n = String.length s in
      let rec scan i =
        if i < n then
          if ident s.[i] then begin
            let j = ref i in
            while !j < n && ident s.[!j] do incr j done;
            let w = String.sub s i (!j - i) in
            (match Hashtbl.find_opt seen w with
            | Some (g :: _) when g = f -> ()
            | Some l -> Hashtbl.replace seen w (f :: l)
            | None -> Hashtbl.add seen w [ f ]);
            scan !j
          end
          else scan (i + 1)
      in
      scan 0)
    files;
  let mlis =
    List.filter (fun f -> Filename.check_suffix f ".mli") (Tcbaudit.Self_audit.lib_sources ())
  in
  check "every lib interface scanned" true (List.length mlis > 90);
  let unused =
    List.concat_map
      (fun mli ->
        let own f = f = mli || f = Filename.chop_suffix mli "i" in
        In_channel.with_open_bin mli In_channel.input_lines
        |> List.filter_map (fun l ->
               match String.split_on_char ' ' (String.trim l) with
               | "val" :: v :: _ ->
                 let v = List.hd (String.split_on_char ':' v) in
                 let elsewhere =
                   List.exists (fun f -> not (own f))
                     (Option.value ~default:[] (Hashtbl.find_opt seen v))
                 in
                 if elsewhere then None else Some (Filename.basename mli ^ ": " ^ v)
               | _ -> None))
      mlis
  in
  Alcotest.(check (list string)) "exports named nowhere else" [] unused

let prop_tcb_monotone =
  QCheck.Test.make ~name:"adding_unsafe_crate_never_shrinks_tcb" ~count:50
    QCheck.(int_range 1 20)
    (fun n ->
      let crates = List.init n (fun i -> mk ~unsafe:(i mod 3 = 0) (Printf.sprintf "c%d" i) 10) in
      let g1 = Tcbaudit.Crate_graph.build crates in
      let g2 = Tcbaudit.Crate_graph.build (mk ~unsafe:true "extra" 10 :: crates) in
      Tcbaudit.Crate_graph.tcb_lcs g2 >= Tcbaudit.Crate_graph.tcb_lcs g1)

let () =
  Alcotest.run "tcbaudit"
    [
      ( "rules",
        [
          Alcotest.test_case "rule2" `Quick test_rule2_unsafe_in_tcb;
          Alcotest.test_case "rule3" `Quick test_rule3_deps_join;
          Alcotest.test_case "rule3_transitive" `Quick test_rule3_transitive;
          Alcotest.test_case "rule1" `Quick test_rule1_toolchain_excluded;
          Alcotest.test_case "lcs" `Quick test_lcs_fraction;
          Alcotest.test_case "duplicate" `Quick test_duplicate_rejected;
          Alcotest.test_case "missing_dep" `Quick test_missing_dep_rejected;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "table9" `Quick test_table9_matches_paper;
          Alcotest.test_case "table1" `Quick test_table1_fractions;
        ] );
      ( "growth",
        [
          Alcotest.test_case "shapes" `Quick test_growth_shapes;
          Alcotest.test_case "fit_quality" `Quick test_growth_fit_quality;
        ] );
      ( "self_audit",
        [
          Alcotest.test_case "repo" `Quick test_self_audit;
          Alcotest.test_case "no_boxed_clock_reads" `Quick test_no_boxed_clock_reads;
          Alcotest.test_case "fs_decide_no_namespace_rule" `Quick test_fs_decide_no_namespace_rule;
          Alcotest.test_case "tcb_no_kspan" `Quick test_tcb_no_kspan;
          Alcotest.test_case "tcb_exports_used" `Quick test_tcb_exports_used;
          Alcotest.test_case "tcb_budget" `Quick test_tcb_budget;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_tcb_monotone ]);
    ]
