(** Cross-layer properties tying the attack statistics to the telemetry
    stream: the numbers an attack reports must agree with the events its
    instrumented hot paths actually emitted.  This is the check that the
    stats cannot silently drift from reality again (they used to: lifetime
    oracle counts reported as per-run queries). *)

module Locked = Orap_locking.Locked
module Random_ll = Orap_locking.Random_ll
module Oracle = Orap_core.Oracle
module Faulty = Orap_core.Faulty_oracle
module Key_recovery = Orap_attacks.Key_recovery
module Attack = Orap_attacks.Attack
module Budget = Orap_attacks.Budget
module Telemetry = Orap_telemetry.Telemetry

let benchgen = Gen.benchgen_netlist ~inputs:8 ~outputs:4 ~gates:40

let with_seed g = Gen.pair g (Gen.int_range 0 0x3FFFFFFF)

let no_faults _ o = o

(* Run attack [a] with a memory sink capturing every event it emits,
   against the functional oracle under the fault layers [faults] adds. *)
let traced ?(faults = no_faults) (a : Key_recovery.t) (nl, seed) =
  let lk = Random_ll.lock ~seed nl ~key_size:6 in
  let oracle = faults lk (Oracle.functional lk) in
  let sink, events = Telemetry.memory () in
  let r =
    Telemetry.with_sink sink (fun () -> a.run ~budget:Budget.default lk oracle)
  in
  (r, events ())

let traced_attack =
  traced (List.find (fun a -> a.Key_recovery.slug = "sat") Key_recovery.all)

let spans name events =
  List.filter
    (fun e ->
      e.Telemetry.phase = Telemetry.Complete && e.Telemetry.name = name)
    events

let int_arg key e =
  match List.assoc_opt key e.Telemetry.args with
  | Some (Telemetry.Int n) -> Some n
  | _ -> None

(* Every fault layer over the functional oracle: noise, a query budget
   that some attacks exhaust, and three-vote repair. *)
let fault_stack _ o =
  Faulty.bit_flip ~p:0.1 o
  |> Faulty.query_budget ~limit:60
  |> Faulty.retry ~votes:3

(* P: every attack's reported [queries] equals the number of "oracle.query"
   spans in its trace — the report and the stream count the same thing,
   and a stack of fault wrappers meters each attacker query once *)
let prop_queries_match_trace =
  Prop.to_alcotest ~count:12
    ~name:"reported queries = oracle.query span count"
    ~gen:(with_seed benchgen) (fun input ->
      List.for_all
        (fun a ->
          List.for_all
            (fun faults ->
              let r, events = traced ~faults a input in
              r.Attack.queries = List.length (spans "oracle.query" events))
            [ no_faults; fault_stack ])
        Key_recovery.all)

(* P: for every attack, the per-solve conflict deltas attached to
   "solver.solve" spans sum to the reported [conflicts], which the budget
   clock tallies over every solver the run builds — no solve escapes
   instrumentation, none is counted twice.  Hill climbing solves nothing
   and reports 0; every other attack solves at least once *)
let prop_conflict_deltas_sum =
  Prop.to_alcotest ~count:12
    ~name:"solver.solve conflict deltas sum to reported conflicts"
    ~gen:(with_seed benchgen) (fun input ->
      List.for_all
        (fun (a : Key_recovery.t) ->
          let r, events = traced a input in
          let solves = spans "solver.solve" events in
          (solves <> []) = (a.slug <> "hill")
          && List.for_all (fun e -> int_arg "conflicts" e <> None) solves
          && List.fold_left
               (fun acc e -> acc + Option.get (int_arg "conflicts" e))
               0 solves
             = r.Attack.conflicts)
        Key_recovery.all)

let run_spans events =
  List.filter
    (fun e ->
      e.Telemetry.phase = Telemetry.Complete
      && Filename.check_suffix e.Telemetry.name ".run")
    events

(* P: every attack opens exactly one [<name>.run] span, whose exit args
   restate the result record; the SAT attack's iteration spans count every
   DIP round plus the final (UNSAT) round that proves the key *)
let prop_run_span_restates_result =
  Prop.to_alcotest ~count:8
    ~name:"<attack>.run exit args match the result record"
    ~gen:(with_seed benchgen) (fun input ->
      List.for_all
        (fun (a : Key_recovery.t) ->
          let r, events = traced a input in
          match run_spans events with
          | [ run ] ->
            int_arg "iterations" run = Some r.Attack.iterations
            && int_arg "queries" run = Some r.Attack.queries
            && int_arg "conflicts" run = Some r.Attack.conflicts
            && List.assoc_opt "outcome" run.Telemetry.args
               = Some (Telemetry.String (Budget.outcome_to_string r.Attack.outcome))
            && (a.slug <> "sat"
               || List.length (spans "sat_attack.iteration" events)
                  = r.Attack.iterations + 1)
          | _ -> false)
        Key_recovery.all)

(* P: every solve span carries the problem size, and the miter only grows
   (IO constraints add variables and clauses, never remove them) *)
let prop_solve_spans_carry_size =
  Prop.to_alcotest ~count:8
    ~name:"solver.solve spans carry vars/clauses/learnts"
    ~gen:(with_seed benchgen) (fun input ->
      let _, events = traced_attack input in
      let sizes =
        List.map
          (fun e -> (int_arg "vars" e, int_arg "clauses" e, int_arg "learnts" e))
          (spans "solver.solve" events)
      in
      let rec growing = function
        | (Some v, Some c, Some l) :: ((Some v', Some c', Some _) :: _ as rest) ->
          l >= 0 && v <= v' && c <= c' && growing rest
        | [ (Some v, Some c, Some l) ] -> v > 0 && c > 0 && l >= 0
        | _ -> false
      in
      growing sizes)

let suite =
  ( "prop-telemetry",
    [
      prop_queries_match_trace;
      prop_conflict_deltas_sum;
      prop_run_span_restates_result;
      prop_solve_spans_carry_size;
    ] )
