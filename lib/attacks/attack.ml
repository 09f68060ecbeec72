(** The DIP loop shared by the SAT-family attacks (SAT, AppSAT, Double
    DIP): while the {!Miter} is satisfiable under its difference guard, the
    model's input is a distinguishing input pattern (DIP); the oracle's
    answer on it becomes an IO constraint on every key copy.  When the
    miter goes unsatisfiable, any key consistent with the constraints is
    equivalent to the correct one *provided the oracle answered correctly*,
    which is exactly the property OraP removes.

    The driver owns the budget clock, the oracle-query delta, the result
    record and the [<name>.run] / [<name>.iteration] spans; an attack is a
    miter shape plus two hooks. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Prng = Orap_sim.Prng
module Lit = Orap_sat.Lit
module Solver = Orap_sat.Solver
module Telemetry = Orap_telemetry.Telemetry

(** The result of every key-recovery attack (see {!Key_recovery}). *)
type result = {
  outcome : bool array Budget.outcome;
  iterations : int;
      (** DIP iterations for the SAT family, accepted flips for hill
          climbing, sensitised key bits for key sensitization *)
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;
      (** solver conflicts spent by this run (0 for hill climbing; summed
          over the per-bit solvers for key sensitization) *)
  elapsed_s : float;  (** on the run's budget clock *)
}

(** Run [f] inside the attack's [<name>.run] span, whose exit args restate
    the result. *)
let span name f =
  Telemetry.span (name ^ ".run")
    ~exit_args:(fun r ->
      [
        ("iterations", Telemetry.Int r.iterations);
        ("queries", Telemetry.Int r.queries);
        ("conflicts", Telemetry.Int r.conflicts);
        ("outcome", Telemetry.String (Budget.outcome_to_string r.outcome));
      ])
    f

(** What a hook sees of a run in progress. *)
type ctx = {
  clock : Budget.clock;
  miter : Miter.t;
  oracle : Oracle.t;
  queries0 : int;  (** the oracle's lifetime count when the run began *)
}

(** Oracle queries made by this run so far. *)
let queries ctx = Oracle.num_queries ctx.oracle - ctx.queries0

type step = Continue | Stop of bool array Budget.outcome

(** A key (copy 0) consistent with every IO constraint so far.  [Error
    Inconsistent] when the oracle's answers fit no key — the signature of
    a locked (OraP-protected) oracle. *)
let candidate ctx =
  let m = ctx.miter in
  match
    Budget.solve ctx.clock ~assumptions:[| Lit.negate m.Miter.activate |]
      m.Miter.solver
  with
  | Error r -> Error r
  | Ok Budget.Unsat -> Error Budget.Inconsistent
  | Ok Budget.Sat -> Ok (Miter.key m 0)

(** The oracle's answers on [n] inputs drawn from [rng], or the refusal
    that cut the sample short. *)
let sample ctx rng n =
  let nri = ctx.miter.Miter.locked.Locked.num_regular_inputs in
  let rec go acc n =
    if n = 0 then Ok (List.rev acc)
    else
      let x = Prng.bool_array rng nri in
      match Budget.query ctx.oracle x with
      | Error r -> Error r
      | Ok y -> go ((x, y) :: acc) (n - 1)
  in
  go [] n

(** Run the DIP loop of the attack [name] (the span prefix) on the miter
    [build] returns, against [oracle] under [budget]; [max_iterations]
    overrides the budget's cap.  [before_dip ctx i] runs ahead of DIP
    iteration [i] and may stop the run (AppSAT's probes);
    [on_proof ctx key i] turns the key found after the miter proof into
    the outcome (default [Exact key]).  The clock starts before the miter
    is built; the run span opens after. *)
let run ~name ~budget ?max_iterations ?(before_dip = fun _ _ -> Continue)
    ?(on_proof = fun _ key _ -> Budget.Exact key) ~(build : unit -> Miter.t)
    (oracle : Oracle.t) : result =
  let budget =
    match max_iterations with
    | Some n -> { budget with Budget.max_iterations = n }
    | None -> budget
  in
  let clock = Budget.start budget in
  let m = build () in
  let ctx = { clock; miter = m; oracle; queries0 = Oracle.num_queries oracle } in
  let finish outcome iters =
    { outcome; iterations = iters; queries = queries ctx;
      conflicts = Solver.num_conflicts m.Miter.solver;
      elapsed_s = Budget.elapsed_s clock }
  in
  (* one DIP iteration: miter solve, oracle query, IO constraint *)
  let dip_step iters =
    match Budget.solve clock ~assumptions:[| m.Miter.activate |] m.Miter.solver with
    | Error r -> Stop (Budget.Exhausted r)
    | Ok Budget.Sat -> (
      let dip = Miter.dip m in
      match Budget.query oracle dip with
      | Error r -> Stop (Budget.Oracle_refused r)
      | Ok y ->
        Miter.add_io m dip y;
        Continue)
    | Ok Budget.Unsat -> (
      match candidate ctx with
      | Error r -> Stop (Budget.Exhausted r)
      | Ok key -> Stop (on_proof ctx key iters))
  in
  let iteration = name ^ ".iteration" in
  let rec loop iters =
    match Budget.check_iteration clock iters with
    | Some r -> finish (Budget.Exhausted r) iters
    | None -> (
      match before_dip ctx iters with
      | Stop outcome -> finish outcome iters
      | Continue -> (
        match
          Telemetry.span iteration
            ~args:[ ("iter", Telemetry.Int iters) ]
            (fun () -> dip_step iters)
        with
        | Stop outcome -> finish outcome iters
        | Continue -> loop (iters + 1)))
  in
  span name (fun () -> loop 0)
