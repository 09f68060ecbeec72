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
  | Refusal of string  (** the oracle declined to answer *)
  | No_progress of string  (** the attack found nothing to work on *)

val reason_to_string : reason -> string

type stats = {
  iterations : int;
  queries : int;
  elapsed_s : float;
  estimated_error : float;  (** failing fraction on the attack's own probe *)
}

(** The shared result type of every attack: ['a] is the recovered artefact
    — a key ([bool array]) for key-recovery attacks, a netlist for the
    structural ones (bypass, SPS, removal). *)
type 'a outcome =
  | Exact of 'a  (** proved (miter-exhausted) recovery *)
  | Approximate of 'a * stats  (** best-effort recovery, no proof *)
  | Exhausted of reason  (** a resource budget tripped first *)
  | Oracle_refused of reason  (** the oracle stopped answering *)

(** The recovered artefact, if any. *)
val recovered : 'a outcome -> 'a option

val succeeded : 'a outcome -> bool
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

(** [None] when iteration [i] may proceed, [Some reason] when the
    iteration cap or the deadline stops it. *)
val check_iteration : clock -> int -> reason option

(** An honest solver answer: a budgeted solve that runs out is an [Error],
    never a third answer. *)
type answer = Sat | Unsat

(** Budget-aware satisfiability: threads the remaining conflict budget
    through [Solver.solve]'s [?conflict_limit] and slices long solves so a
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
    [Error (Refusal _)]. *)
val query : Orap_core.Oracle.t -> bool array -> (bool array, reason) result

val stats_of :
  clock ->
  iterations:int ->
  queries:int ->
  ?estimated_error:float ->
  unit ->
  stats
