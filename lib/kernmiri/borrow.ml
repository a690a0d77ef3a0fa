type perm = Unique | Shared_ro | Shared_rw

type tag = int

type entry = { tag : tag; perm : perm }

type t = { stacks : (string, entry list) Hashtbl.t; mutable next_tag : int }

let create () = { stacks = Hashtbl.create 16; next_tag = 0 }

let fresh t =
  t.next_tag <- t.next_tag + 1;
  t.next_tag

let alloc t name =
  let tag = fresh t in
  Hashtbl.replace t.stacks name [ { tag; perm = Unique } ];
  tag

let stack t name = match Hashtbl.find_opt t.stacks name with Some s -> s | None -> []

(* Using a tag pops everything above it in the stack. *)
let find_and_pop t name tag =
  let rec drop = function
    | [] -> None
    | e :: rest when e.tag = tag -> Some (e :: rest)
    | _ :: rest -> drop rest
  in
  match drop (stack t name) with
  | None -> None
  | Some s ->
    Hashtbl.replace t.stacks name s;
    Some (List.hd s)

let retag t name ~from perm =
  match find_and_pop t name from with
  | None -> Error (Printf.sprintf "retag of %s: tag %d is no longer valid" name from)
  | Some parent ->
    (match (parent.perm, perm) with
    | Shared_ro, (Unique | Shared_rw) ->
      Error (Printf.sprintf "retag of %s: cannot derive a mutable tag from a shared one" name)
    | _ ->
      let tag = fresh t in
      Hashtbl.replace t.stacks name ({ tag; perm } :: stack t name);
      Ok tag)

let read t name tag =
  match find_and_pop t name tag with
  | None -> Error (Printf.sprintf "read of %s via invalidated tag %d (UB)" name tag)
  | Some _ -> Ok ()

let write t name tag =
  match find_and_pop t name tag with
  | None -> Error (Printf.sprintf "write to %s via invalidated tag %d (UB)" name tag)
  | Some e -> (
    match e.perm with
    | Unique | Shared_rw -> Ok ()
    | Shared_ro ->
      Error
        (Printf.sprintf
           "write to %s via a read-only (const-pointer) tag %d: mutability UB" name tag))
