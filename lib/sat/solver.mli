(** CDCL SAT solver: two-watched-literal propagation, first-UIP learning,
    VSIDS branching with phase saving, Luby restarts, activity-based learnt
    clause reduction and assumption-based incremental solving.

    Clauses live in one flat [int array] arena (a header word, an activity
    index and the literals inline), literal values in a per-literal array,
    and the search loop allocates nothing.  Deleted learnt clauses are
    compacted away once they pass a quarter of the arena, so memory follows
    the live clauses.  The storage took the place of boxed clause records
    without changing the search: for the same calls the solver makes the
    same decisions, conflicts and propagations, and returns the same
    models. *)

type result =
  | Sat
  | Unsat
  | Unknown
      (** the conflict limit tripped before the solver reached an answer —
        distinct from [Unsat] so budgeted callers never misread a genuine
        refutation that lands exactly at the cap *)

type t

val create : unit -> t

(** {1 Variables and clauses} *)

(** Allocate a fresh variable (0-based index). *)
val new_var : t -> int

(** Allocate [n] fresh variables. *)
val new_vars : t -> int -> int array

(** Add a problem clause (the solver first backtracks to the root).  Returns [false] once the
    clause set is trivially unsatisfiable; further calls are ignored. *)
val add_clause : t -> Lit.t list -> bool

(** {1 Solving} *)

(** [solve ?assumptions ?conflict_limit s] decides satisfiability under the
    given assumption literals.  Returns [Unknown] iff [conflict_limit] is
    reached without an answer; note the level-0 conflict check precedes the
    limit check, so a refutation found on exactly the cap-th conflict is
    still reported [Unsat].  The solver can be reused: clauses may be added
    and [solve] called again (backtracking to the root first). *)
val solve : ?assumptions:Lit.t array -> ?conflict_limit:int -> t -> result

(** [solve] with no conflict limit, whose answer is therefore one of the
    two verdicts: callers have no [Unknown] case to rule out. *)
val decide : ?assumptions:Lit.t array -> t -> [ `Sat | `Unsat ]

(** Model access, valid after a [Sat] answer and before the next solver
    operation. *)
val model_value : t -> int -> bool

val model_lit : t -> Lit.t -> bool

(** Undo all decisions (required before adding clauses after a [Sat]). *)
val backtrack_to_root : t -> unit

(** {1 Introspection} *)

val num_vars : t -> int

(** Problem clauses of two or more literals held by the solver (units are
    assigned at the root, not stored). *)
val num_clauses : t -> int

(** Learnt clauses currently kept (those [reduce_db] deleted are gone). *)
val num_learnts : t -> int

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int

(** Words of the clause arena in use: live clauses plus deleted ones not
    yet compacted away, which stay below a third of the live words. *)
val arena_words : t -> int

(** Current assignment of a variable: 1 true, -1 false, 0 unassigned. *)
val value_var : t -> int -> int

(** Current assignment of a literal under the same encoding. *)
val value_lit : t -> Lit.t -> int
