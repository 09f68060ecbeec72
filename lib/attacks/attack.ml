(** The DIP loop shared by the SAT-family attacks (SAT, AppSAT, Double
    DIP): while the {!Miter} is satisfiable under its difference guard, the
    model's input is a distinguishing input pattern (DIP); the oracle's
    answer on it becomes an IO constraint on every key copy.  When the
    miter goes unsatisfiable, any key consistent with the constraints is
    equivalent to the correct one *provided the oracle answered correctly*,
    which is exactly the property OraP removes.

    {!measure} is the harness of every key-recovery attack: it opens the
    [<name>.run] span and builds the result record, so hill climbing and
    key sensitization report exactly as the DIP loop does.  The DIP loop
    adds the [<name>.iteration] spans; a SAT-family attack is a miter
    shape plus two hooks. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Prng = Orap_sim.Prng
module Lit = Orap_sat.Lit
module Telemetry = Orap_telemetry.Telemetry

(** The result of every key-recovery attack (see {!Key_recovery}). *)
type result = {
  outcome : bool array Budget.outcome;
  iterations : int;
      (** DIP iterations for the SAT family, accepted flips for hill
          climbing, sensitised key bits for key sensitization *)
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;
      (** solver conflicts spent by this run's budgeted solves, on any
          solver (0 for hill climbing) *)
  elapsed_s : float;  (** on the run's budget clock *)
}

(** One run of the attack [name]: [body] runs inside the [<name>.run] span
    and returns the outcome and the iteration count; the queries are
    [oracle]'s delta over the run (0 without an oracle), the conflicts and
    the elapsed time are [clock]'s.  The span's exit args restate the
    result. *)
let measure ~name ~clock ?oracle body =
  let queries () = Option.fold ~none:0 ~some:Oracle.num_queries oracle in
  let queries0 = queries () in
  Telemetry.span (name ^ ".run")
    ~exit_args:(fun r ->
      [
        ("iterations", Telemetry.Int r.iterations);
        ("queries", Telemetry.Int r.queries);
        ("conflicts", Telemetry.Int r.conflicts);
        ("outcome", Telemetry.String (Budget.outcome_to_string r.outcome));
      ])
  @@ fun () ->
  let outcome, iterations = body () in
  { outcome; iterations; queries = queries () - queries0;
    conflicts = Budget.conflicts clock; elapsed_s = Budget.elapsed_s clock }

(** What a hook sees of a run in progress. *)
type ctx = { clock : Budget.clock; miter : Miter.t }

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

(** [oracle]'s answers on [n] [inputs]-bit patterns drawn from [rng], or
    the refusal that cut the sample short. *)
let sample (oracle : Oracle.t) ~inputs rng n =
  let rec go acc n =
    if n = 0 then Ok (List.rev acc)
    else
      let x = Prng.bool_array rng inputs in
      match Budget.query oracle x with
      | Error r -> Error r
      | Ok y -> go ((x, y) :: acc) (n - 1)
  in
  go [] n

(** Output bits on which [locked] under [key] disagrees with the answers
    in [pairs]. *)
let mismatches (locked : Locked.t) key pairs =
  List.fold_left
    (fun acc (x, y) ->
      let y' = Locked.eval locked ~key ~inputs:x in
      let m = ref 0 in
      Array.iteri (fun j b -> if b <> y'.(j) then incr m) y;
      acc + !m)
    0 pairs

(** Run the DIP loop of the attack [name] (the span prefix) on the miter
    [build] returns, against [oracle] under [budget]; [max_iterations]
    overrides the budget's cap.  [before_dip ctx i] runs ahead of DIP
    iteration [i] and may stop the run (AppSAT's probes);
    [on_proof key] turns the key found after the miter proof into
    the outcome (default [Exact key]).  The clock starts before the miter
    is built; the run span opens after. *)
let run ~name ~budget ?max_iterations ?(before_dip = fun _ _ -> Continue)
    ?(on_proof = fun key -> Budget.Exact key) ~(build : unit -> Miter.t)
    (oracle : Oracle.t) : result =
  let budget =
    match max_iterations with
    | Some n -> { budget with Budget.max_iterations = n }
    | None -> budget
  in
  let clock = Budget.start budget in
  let m = build () in
  let ctx = { clock; miter = m } in
  (* one DIP iteration: miter solve, oracle query, IO constraint *)
  let dip_step () =
    match Budget.solve clock ~assumptions:[| m.Miter.activate |] m.Miter.solver with
    | Error r -> Stop (Budget.Exhausted r)
    | Ok Budget.Sat -> (
      let dip = Miter.dip m in
      match Budget.query oracle dip with
      | Error msg -> Stop (Budget.Oracle_refused msg)
      | Ok y ->
        Miter.add_io m dip y;
        Continue)
    | Ok Budget.Unsat -> (
      match candidate ctx with
      | Error r -> Stop (Budget.Exhausted r)
      | Ok key -> Stop (on_proof key))
  in
  let iteration = name ^ ".iteration" in
  let rec loop iters =
    match Budget.check_iteration clock iters with
    | Some r -> (Budget.Exhausted r, iters)
    | None -> (
      match before_dip ctx iters with
      | Stop outcome -> (outcome, iters)
      | Continue -> (
        match
          Telemetry.span iteration
            ~args:[ ("iter", Telemetry.Int iters) ]
            dip_step
        with
        | Stop outcome -> (outcome, iters)
        | Continue -> loop (iters + 1)))
  in
  measure ~name ~clock ~oracle (fun () -> loop 0)
