(** Resource budgets and the shared attack outcome type.

    Every attack in this library runs under a {!t}: a DIP/loop iteration
    cap, an optional wall-clock deadline and an optional cumulative
    solver-conflict budget (threaded through [Solver.solve]'s
    [?conflict_limit]).  Attacks report a structured {!outcome} instead of
    the old ad-hoc [key option] / [failwith] mix, so a harness can tell
    "proved key" from "settled for an approximation" from "ran out of X"
    from "the oracle refused to answer" without pattern-matching on
    exceptions or magic [None]s. *)

module Oracle = Orap_core.Oracle
module Faulty_oracle = Orap_core.Faulty_oracle
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics

(* --- why an attack stopped --- *)

type reason =
  | Iterations of int  (** the DIP/loop iteration cap *)
  | Wall_clock of float  (** the wall-clock allotment, seconds *)
  | Conflicts of int  (** the cumulative solver-conflict budget *)
  | Inconsistent  (** oracle answers fit no key (OraP's signature) *)

let reason_to_string = function
  | Iterations n -> Printf.sprintf "iteration cap of %d reached" n
  | Wall_clock s -> Printf.sprintf "wall-clock budget of %.2fs spent" s
  | Conflicts n -> Printf.sprintf "solver-conflict budget of %d spent" n
  | Inconsistent -> "oracle answers are consistent with no key"

(* --- what an attack produced --- *)

type 'a outcome =
  | Exact of 'a  (** proved (miter-exhausted) recovery *)
  | Approximate of 'a * float  (** best-effort recovery and its estimated error *)
  | Exhausted of reason  (** a resource budget tripped first *)
  | Oracle_refused of string  (** the oracle stopped answering, and why *)

let recovered = function
  | Exact x -> Some x
  | Approximate (x, _) -> Some x
  | Exhausted _ | Oracle_refused _ -> None

let outcome_to_string = function
  | Exact _ -> "exact"
  | Approximate (_, err) ->
    Printf.sprintf "approximate (est. error %.1f%%)" (100.0 *. err)
  | Exhausted r -> "exhausted: " ^ reason_to_string r
  | Oracle_refused msg -> "refused: oracle refused: " ^ msg

(* --- the budget itself --- *)

type t = {
  max_iterations : int;
  wall_clock_s : float option;
  max_conflicts : int option;
}

let default = { max_iterations = 256; wall_clock_s = None; max_conflicts = None }

let make ?(max_iterations = default.max_iterations) ?wall_clock_s ?max_conflicts
    () =
  if max_iterations < 0 then invalid_arg "Budget.make: negative max_iterations";
  (match wall_clock_s with
  | Some s when s < 0.0 -> invalid_arg "Budget.make: negative wall_clock_s"
  | _ -> ());
  (match max_conflicts with
  | Some c when c < 0 -> invalid_arg "Budget.make: negative max_conflicts"
  | _ -> ());
  { max_iterations; wall_clock_s; max_conflicts }

type clock = {
  budget : t;
  started : float;
  mutable conflicts : int;  (** spent by this clock's solves, on any solver *)
}

let start budget = { budget; started = Unix.gettimeofday (); conflicts = 0 }

let elapsed_s c = Unix.gettimeofday () -. c.started
let conflicts c = c.conflicts

let out_of_time c =
  match c.budget.wall_clock_s with
  | None -> None
  | Some limit ->
    if elapsed_s c >= limit then Some (Wall_clock limit) else None

(** [None] when iteration [i] may proceed, [Some reason] when the iteration
    cap or the deadline stops it. *)
let check_iteration c i =
  if i >= c.budget.max_iterations then Some (Iterations c.budget.max_iterations)
  else out_of_time c

(* Deadline checks cannot preempt a single [Solver.solve] call, so when a
   deadline is set the solve is sliced into conflict-limited chunks: a
   chunk that trips its limit reports Unsat with the conflict count at the
   cap, after which the deadline is rechecked and the solve resumed. *)
let conflict_slice = 4096

type answer = Sat | Unsat

(** Budget-aware satisfiability: [Ok answer] on an honest answer, [Error
    reason] when the conflict budget or the deadline ran out first; an
    indeterminate chunk either resumes or becomes an [Error].  The conflict
    budget is the clock's, so it spans every solver the run builds. *)
let solve c ?(assumptions = [||]) (s : Solver.t) : (answer, reason) result =
  let conflicts0 = Solver.num_conflicts s in
  (* [s]'s conflict count at which the clock's budget runs out *)
  let cap_abs, spent =
    match c.budget.max_conflicts with
    | Some n -> (conflicts0 + n - c.conflicts, Error (Conflicts n))
    | None -> (max_int, Error (Conflicts max_int))
  in
  let rec go () =
    match out_of_time c with
    | Some r -> Error r
    | None ->
      if Solver.num_conflicts s >= cap_abs then spent
      else begin
        let cap =
          match c.budget.wall_clock_s with
          | Some _ -> min cap_abs (Solver.num_conflicts s + conflict_slice)
          | None -> cap_abs
        in
        match Solver.solve ~assumptions ~conflict_limit:cap s with
        | Solver.Sat -> Ok Sat
        | Solver.Unsat -> Ok Unsat
        | Solver.Unknown ->
          (* the chunk's limit tripped: recheck budgets, resume *)
          if Solver.num_conflicts s >= cap_abs then spent else go ()
      end
  in
  let decisions0 = Solver.num_decisions s in
  let propagations0 = Solver.num_propagations s in
  Metrics.incr (Metrics.counter "solver.solves");
  let r =
    Telemetry.span "solver.solve"
      ~exit_args:(fun r ->
        [
          ( "result",
            Telemetry.String
              (match r with
              | Ok Sat -> "sat"
              | Ok Unsat -> "unsat"
              | Error reason -> reason_to_string reason) );
          ("conflicts", Telemetry.Int (Solver.num_conflicts s - conflicts0));
          ("decisions", Telemetry.Int (Solver.num_decisions s - decisions0));
          ( "propagations",
            Telemetry.Int (Solver.num_propagations s - propagations0) );
          ("vars", Telemetry.Int (Solver.num_vars s));
          ("clauses", Telemetry.Int (Solver.num_clauses s));
          ("learnts", Telemetry.Int (Solver.num_learnts s));
        ])
      go
  in
  (* feed the per-solve statistic deltas to the clock and the [solver.*]
     counters *)
  let dc = Solver.num_conflicts s - conflicts0 in
  c.conflicts <- c.conflicts + dc;
  Metrics.add (Metrics.counter "solver.conflicts") dc;
  Metrics.add (Metrics.counter "solver.decisions")
    (Solver.num_decisions s - decisions0);
  Metrics.add (Metrics.counter "solver.propagations")
    (Solver.num_propagations s - propagations0);
  r

(** Oracle query that converts {!Faulty_oracle.Refused} into its message. *)
let query (oracle : Oracle.t) inputs : (bool array, string) result =
  match Oracle.query oracle inputs with
  | y -> Ok y
  | exception Faulty_oracle.Refused msg -> Error msg
