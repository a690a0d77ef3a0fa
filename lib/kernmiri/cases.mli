(** The two UB case studies of Fig. 9, as KernMiri programs: each comes
    in the buggy variant the tool caught and the fixed variant that
    shipped. *)

type outcome = { description : string; buggy_detected : bool; fixed_clean : bool }

val all : unit -> outcome list
