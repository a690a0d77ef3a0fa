(** Published measurements encoded as crate graphs.

    The paper reports aggregate numbers (Table 1 crate fractions, Table 9
    LCS totals, Table 3 Linux component growth); these datasets are
    synthetic crate inventories constructed so that {!Crate_graph}'s
    Rules 1-3 + LCS reproduce exactly those aggregates. They are inputs
    for regenerating the tables, not a claim about the real crate lists. *)

val asterinas : Crate_graph.t

val table9 : (string * Crate_graph.t) list
(** The four OSes of Table 9, in paper order. *)

val table1 : (string * Crate_graph.t) list
(** Linux/Tock/RedLeaf/Theseus, the Table 1 columns. *)

(** Table 3: Linux component growth (KLoC). *)
val linux_component_growth : (string * float * float) list
(** (component, v2.1.23 1997, v6.12.0 2024). *)
