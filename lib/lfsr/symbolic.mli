(** Symbolic (GF(2)) simulation of the key-register LFSR: every cell holds
    a linear expression over the injected-bit variables — the computation
    behind attack scenario (d) and the designer-side schedule solving. *)

(** [unroll lfsr injects] clocks a cleared register once per element of
    [injects]; a [true] cycle XORs fresh variables in at every reseeding
    point, a [false] cycle free-runs.  Variable [v * width + k] is bit [k]
    of the [v]-th injecting cycle.  Returns the final-state expressions and
    the number of variables. *)
val unroll : Lfsr.t -> bool list -> Bitset.t array * int

(** XOR-gate count of trees realising the expressions (scenario (d)'s
    payload). *)
val xor_tree_gates : Bitset.t array -> int

(** Average variables per cell expression. *)
val mean_terms : Bitset.t array -> float

(** Solve [exprs * x = target] over GF(2); [None] when inconsistent. *)
val solve : Bitset.t array -> num_vars:int -> bool array -> bool array option
