(** Hill-climbing attack (Plaza & Markov [4]).

    A candidate key is refined by greedy bit flips that reduce the number of
    output mismatches against correct responses.  Two response sources
    exist, both oracle-based: live queries to a functional chip, or the
    designer-supplied test patterns with their (supposedly unlocked)
    responses — the paper's footnote 1.  Under OraP the chip is tested
    locked, so that second source yields locked responses and the climb
    converges to the wrong key. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Prng = Orap_sim.Prng

exception Stopped of Budget.reason

(* Greedy restarts over [pairs].  The budget is checked after every flip
   pass (pass [n] is iteration [n]); [flips] counts accepted flips even when
   the budget stops the climb. *)
let climb clock (locked : Locked.t) pairs ~seed ~restarts ~flips =
  let ksz = Locked.key_size locked in
  let rng = Prng.create seed in
  let best_key = ref (Array.make ksz false) in
  let best_cost = ref max_int in
  let passes = ref 0 in
  for _ = 1 to restarts do
    let key = Prng.bool_array rng ksz in
    let current = ref (Attack.mismatches locked key pairs) in
    let improved = ref true in
    while !improved && !current > 0 do
      improved := false;
      for j = 0 to ksz - 1 do
        key.(j) <- not key.(j);
        let c = Attack.mismatches locked key pairs in
        if c < !current then begin
          current := c;
          incr flips;
          improved := true
        end
        else key.(j) <- not key.(j)
      done;
      incr passes;
      Option.iter
        (fun r -> raise (Stopped r))
        (Budget.check_iteration clock !passes)
    done;
    if !current < !best_cost then begin
      best_cost := !current;
      best_key := Array.copy key
    end
  done;
  (!best_key, !best_cost)

(* Climb on the pairs [collect] returns, measured as one [hill_climb] run
   whose queries are [oracle]'s.  The outcome is always best-effort
   (sample-based, no proof). *)
let attack ~budget ~seed ~restarts (locked : Locked.t) ?oracle collect :
    Attack.result =
  let clock = Budget.start budget in
  Attack.measure ~name:"hill_climb" ~clock ?oracle @@ fun () ->
  let flips = ref 0 in
  let outcome =
    match Budget.check_iteration clock 0 with
    | Some r -> Budget.Exhausted r
    | None -> (
      match collect () with
      | Error msg -> Budget.Oracle_refused msg
      | Ok pairs -> (
        match climb clock locked pairs ~seed ~restarts ~flips with
        | exception Stopped r -> Budget.Exhausted r
        | key, mismatches ->
          let bits =
            List.length pairs
            * Array.length (Orap_netlist.Netlist.outputs locked.Locked.netlist)
          in
          Budget.Approximate
            ( key,
              if bits = 0 then 1.0
              else float_of_int mismatches /. float_of_int bits )))
  in
  (outcome, !flips)

(** Attack from [sample] live oracle queries on random patterns. *)
let run ?(budget = Budget.default) ?(sample = 48) ?(restarts = 3)
    (locked : Locked.t) (oracle : Oracle.t) : Attack.result =
  attack ~budget ~seed:52 ~restarts locked ~oracle (fun () ->
      Attack.sample oracle ~inputs:locked.Locked.num_regular_inputs
        (Prng.create 51) sample)

(** Attack from given test patterns and their responses (footnote 1): under
    OraP these are locked-circuit responses. *)
let run_on_responses ?(restarts = 3) (locked : Locked.t)
    (pairs : (bool array * bool array) list) : Attack.result =
  attack ~budget:Budget.default ~seed:51 ~restarts locked (fun () -> Ok pairs)
