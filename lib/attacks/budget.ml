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
  | Refusal of string  (** the oracle declined to answer *)
  | No_progress of string  (** the attack found nothing to work on *)

let reason_to_string = function
  | Iterations n -> Printf.sprintf "iteration cap of %d reached" n
  | Wall_clock s -> Printf.sprintf "wall-clock budget of %.2fs spent" s
  | Conflicts n -> Printf.sprintf "solver-conflict budget of %d spent" n
  | Inconsistent -> "oracle answers are consistent with no key"
  | Refusal msg -> "oracle refused: " ^ msg
  | No_progress msg -> "no progress: " ^ msg

(* --- what an attack produced --- *)

type stats = {
  iterations : int;
  queries : int;
  elapsed_s : float;
  estimated_error : float;  (** failing fraction on the attack's own probe *)
}

type 'a outcome =
  | Exact of 'a  (** proved (miter-exhausted) recovery *)
  | Approximate of 'a * stats  (** best-effort recovery, no proof *)
  | Exhausted of reason  (** a resource budget tripped first *)
  | Oracle_refused of reason  (** the oracle stopped answering *)

let recovered = function
  | Exact x -> Some x
  | Approximate (x, _) -> Some x
  | Exhausted _ | Oracle_refused _ -> None

let succeeded o = match o with Exact _ | Approximate _ -> true | _ -> false

let outcome_to_string = function
  | Exact _ -> "exact"
  | Approximate (_, st) ->
    Printf.sprintf "approximate (est. error %.1f%%)" (100.0 *. st.estimated_error)
  | Exhausted r -> "exhausted: " ^ reason_to_string r
  | Oracle_refused r -> "refused: " ^ reason_to_string r

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

type clock = { budget : t; started : float }

let start budget = { budget; started = Unix.gettimeofday () }

let elapsed_s c = Unix.gettimeofday () -. c.started

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
    indeterminate chunk either resumes or becomes an [Error]. *)
let solve c ?(assumptions = [||]) (s : Solver.t) : (answer, reason) result =
  let cap_abs =
    match c.budget.max_conflicts with Some n -> n | None -> max_int
  in
  let rec go () =
    match out_of_time c with
    | Some r -> Error r
    | None ->
      if Solver.num_conflicts s >= cap_abs then Error (Conflicts cap_abs)
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
          if Solver.num_conflicts s >= cap_abs then Error (Conflicts cap_abs)
          else go ()
      end
  in
  let conflicts0 = Solver.num_conflicts s in
  let decisions0 = Solver.num_decisions s in
  let propagations0 = Solver.num_propagations s in
  Metrics.incr (Metrics.counter "solver.solves");
  (* feed the per-solve statistic deltas to the [solver.*] counters *)
  let record () =
    let dc = Solver.num_conflicts s - conflicts0 in
    let dd = Solver.num_decisions s - decisions0 in
    let dp = Solver.num_propagations s - propagations0 in
    Metrics.add (Metrics.counter "solver.conflicts") dc;
    Metrics.add (Metrics.counter "solver.decisions") dd;
    Metrics.add (Metrics.counter "solver.propagations") dp;
    (dc, dd, dp)
  in
  if Telemetry.enabled () then
    Telemetry.span "solver.solve"
      ~exit_args:(fun r ->
        let dc, dd, dp = record () in
        [
          ( "result",
            Telemetry.String
              (match r with
              | Ok Sat -> "sat"
              | Ok Unsat -> "unsat"
              | Error reason -> reason_to_string reason) );
          ("conflicts", Telemetry.Int dc);
          ("decisions", Telemetry.Int dd);
          ("propagations", Telemetry.Int dp);
          ("vars", Telemetry.Int (Solver.num_vars s));
          ("clauses", Telemetry.Int (Solver.num_clauses s));
          ("learnts", Telemetry.Int (Solver.num_learnts s));
        ])
      go
  else begin
    let r = go () in
    ignore (record ());
    r
  end

(** Oracle query that converts {!Faulty_oracle.Refused} into a reason. *)
let query (oracle : Oracle.t) inputs : (bool array, reason) result =
  match Oracle.query oracle inputs with
  | y -> Ok y
  | exception Faulty_oracle.Refused msg -> Error (Refusal msg)

let stats_of c ~iterations ~queries ?(estimated_error = 0.0) () =
  { iterations; queries; elapsed_s = elapsed_s c; estimated_error }
