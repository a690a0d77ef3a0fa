type entry = { library : string; loc : int; tcb : bool }

type report = { entries : entry list; total_loc : int; tcb_loc : int; relative : float }

let tcb_libs = [ "core"; "machine"; "sim" ]

let kernel_libs = [ "core"; "machine"; "sim"; "aster"; "kprobe"; "apps" ]

let count_lines file =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* The .ml and .mli files of one directory, sorted. *)
let sources dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  else []

let lib_loc dir = List.fold_left (fun acc f -> acc + count_lines f) 0 (sources dir)

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let root_or_found = function
  | Some r -> r
  | None -> ( match find_root () with Some r -> r | None -> ".")

let lib_sources () =
  let lib = Filename.concat (root_or_found None) "lib" in
  Sys.readdir lib |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun d -> sources (Filename.concat lib d))

let run ?root () =
  let root = root_or_found root in
  let entries =
    List.filter_map
      (fun lib ->
        let loc = lib_loc (Filename.concat (Filename.concat root "lib") lib) in
        if loc = 0 then None else Some { library = lib; loc; tcb = List.mem lib tcb_libs })
      kernel_libs
  in
  let total_loc = List.fold_left (fun a e -> a + e.loc) 0 entries in
  let tcb_loc = List.fold_left (fun a e -> if e.tcb then a + e.loc else a) 0 entries in
  {
    entries;
    total_loc;
    tcb_loc;
    relative = (if total_loc = 0 then 0. else float_of_int tcb_loc /. float_of_int total_loc);
  }
