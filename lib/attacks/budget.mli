(** Resource budgets and the shared attack outcome type.

    Attacks run under a {!t} (iteration cap, optional wall-clock deadline,
    optional cumulative solver-conflict budget) and report a structured
    {!outcome} instead of ad-hoc [key option]s and [failwith]s. *)

(** Why an attack stopped short of an exact key. *)
type reason =
  | Iterations of int  (** the DIP/loop iteration cap *)
  | Wall_clock of float  (** the wall-clock allotment, seconds *)
  | Conflicts of int  (** the cumulative solver-conflict budget *)
  | Inconsistent  (** oracle answers fit no key (OraP's signature) *)

val reason_to_string : reason -> string

(** The shared result type of every attack: ['a] is the recovered artefact
    — a key ([bool array]) for key-recovery attacks, a netlist for the
    structural ones (bypass, SPS, removal). *)
type 'a outcome =
  | Exact of 'a  (** proved (miter-exhausted) recovery *)
  | Approximate of 'a * float
      (** best-effort recovery, no proof, with its estimated error: the
          failing fraction on the attack's own probe *)
  | Exhausted of reason  (** a resource budget tripped first *)
  | Oracle_refused of string  (** the oracle stopped answering, and why *)

(** The recovered artefact, if any. *)
val recovered : 'a outcome -> 'a option

val outcome_to_string : 'a outcome -> string

type t = {
  max_iterations : int;
  wall_clock_s : float option;
  max_conflicts : int option;
}

(** 256 iterations, no deadline, no conflict budget. *)
val default : t

val make :
  ?max_iterations:int -> ?wall_clock_s:float -> ?max_conflicts:int -> unit -> t

(** A started budget (captures the start time). *)
type clock

val start : t -> clock
val elapsed_s : clock -> float

(** Conflicts spent so far by the clock's {!solve}s, on any solver. *)
val conflicts : clock -> int

(** [None] when iteration [i] may proceed, [Some reason] when the
    iteration cap or the deadline stops it. *)
val check_iteration : clock -> int -> reason option

(** An honest solver answer: a budgeted solve that runs out is an [Error],
    never a third answer. *)
type answer = Sat | Unsat

(** Budget-aware satisfiability: threads the conflicts the clock has left
    (the budget less every conflict its earlier solves spent, on any
    solver) through [Solver.solve]'s [?conflict_limit] and slices long solves so a
    wall-clock deadline is honoured to ~thousands of conflicts.  A genuine
    [Unsat] proved on exactly the cap-th conflict is [Ok Unsat]; [Error
    reason] means a budget ran out mid-solve.  Always feeds the [solver.*]
    metrics counters; with tracing enabled, each call emits one
    ["solver.solve"] span carrying the result, the conflict/decision/
    propagation deltas and the problem size at exit ([vars], [clauses],
    [learnts]). *)
val solve :
  clock ->
  ?assumptions:Orap_sat.Lit.t array ->
  Orap_sat.Solver.t ->
  (answer, reason) result

(** Oracle query that converts {!Orap_core.Faulty_oracle.Refused} into
    [Error] carrying the oracle's message. *)
val query : Orap_core.Oracle.t -> bool array -> (bool array, string) result
