(** Differential tests of the equivalence oracle itself, plus SAT-layer
    DIMACS properties.  The SAT-miter decider and the exhaustive simulator
    are independent implementations; on circuits small enough for both,
    they must return the same verdict, and every counterexample either
    produces must actually distinguish the circuits. *)

open Util
module Equiv = Orap_proptest.Equiv
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Dimacs = Orap_sat.Dimacs

let tiny = Gen.tiny_params

(* netlist + one-gate mutant: the workload that exercises both verdicts *)
let mutant_pair_gen = Gen.bind (Gen.netlist ~params:tiny ()) (fun nl ->
    Gen.map (fun m -> (nl, m)) (Gen.mutant nl))

(* P: SAT miter and exhaustive simulation agree on every (nl, mutant) pair *)
let prop_sat_agrees_with_exhaustive =
  Prop.to_alcotest ~count:60 ~name:"sat miter verdict = exhaustive verdict"
    ~gen:mutant_pair_gen
    ~print:(fun (nl, m) ->
      "original:\n" ^ Shrink.report nl ^ "mutant:\n"
      ^ Shrink.report m)
    (fun (nl, m) ->
      let s = Equiv.sat_equiv nl m in
      let e = Equiv.exhaustive_equiv nl m in
      match (s, e) with
      | Equiv.Equivalent, Equiv.Equivalent -> true
      | Equiv.Inequivalent a, Equiv.Inequivalent b ->
        Equiv.counterexample_valid nl m a && Equiv.counterexample_valid nl m b
      | Equiv.Equivalent, Equiv.Inequivalent _
      | Equiv.Inequivalent _, Equiv.Equivalent ->
        false)

(* P: reflexivity, and complementing an output is always caught *)
let prop_self_and_complement =
  Prop.netlist ~count:40 ~params:tiny
    "self-equivalence and output-complement inequivalence" (fun nl ->
      let b = N.Builder.create () in
      let map = N.copy_into b nl (Array.make (N.num_nodes nl) (-1)) in
      let outs = N.outputs nl in
      Array.iteri
        (fun j o ->
          if j = 0 then
            N.Builder.mark_output b
              (N.Builder.add_node b Gate.Not [| map.(o) |])
          else N.Builder.mark_output b map.(o))
        outs;
      let complemented = N.Builder.finish b in
      Equiv.sat_equiv nl nl = Equiv.Equivalent
      && Equiv.exhaustive_equiv nl nl = Equiv.Equivalent
      && (match Equiv.sat_equiv nl complemented with
         | Equiv.Inequivalent cex ->
           Equiv.counterexample_valid nl complemented cex
         | Equiv.Equivalent -> false))

(* P: with_fixed_inputs really is partial evaluation: fixing input 0 to v
   agrees with simulating the original on (v, rest) *)
let prop_fixed_inputs_partial_eval =
  Prop.netlist_with_seed ~count:40 ~params:tiny
    "with_fixed_inputs is partial evaluation" (fun nl ~aux ->
      let rng = Prng.create aux in
      let ni = N.num_inputs nl in
      if ni < 2 then true
      else begin
        let v = Prng.bool rng in
        let specialized = Equiv.with_fixed_inputs nl [ (0, v) ] in
        let ok = ref true in
        for _ = 1 to 16 do
          let rest = Prng.bool_array rng (ni - 1) in
          let full = Array.init ni (fun i -> if i = 0 then v else rest.(i - 1)) in
          if Sim.eval_bools nl full <> Sim.eval_bools specialized rest then
            ok := false
        done;
        !ok
      end)

(* --- DIMACS / solver cross-checks (sat layer) --- *)

let clause_gen ~num_vars =
  Gen.list_of (Gen.int_range 1 3)
    (Gen.map
       (fun (v, s) -> if s then v else -v)
       (Gen.pair (Gen.int_range 1 num_vars) Gen.bool))

let cnf_gen =
  Gen.bind (Gen.int_range 2 6) (fun num_vars ->
      Gen.map
        (fun clauses ->
          { Dimacs.num_vars; clauses = List.filter (( <> ) []) clauses })
        (Gen.list_of (Gen.int_range 1 12) (clause_gen ~num_vars)))

let brute_force_sat (c : Dimacs.cnf) =
  let n = c.Dimacs.num_vars in
  let sat = ref false in
  for m = 0 to (1 lsl n) - 1 do
    if
      List.for_all
        (List.exists (fun l ->
             let v = abs l - 1 in
             let asg = (m lsr v) land 1 = 1 in
             if l > 0 then asg else not asg))
        c.Dimacs.clauses
    then sat := true
  done;
  !sat

let pp_cnf c = Dimacs.print c

(* P: print/parse round-trips the clause set *)
let prop_dimacs_roundtrip =
  Prop.to_alcotest ~count:60 ~name:"dimacs print/parse round-trip"
    ~gen:cnf_gen ~print:pp_cnf (fun c ->
      let back = Dimacs.parse (Dimacs.print c) in
      back.Dimacs.clauses = c.Dimacs.clauses
      && back.Dimacs.num_vars = c.Dimacs.num_vars)

(* P: the CDCL solver on a loaded CNF agrees with brute-force enumeration *)
let prop_solver_matches_brute_force =
  Prop.to_alcotest ~count:60 ~name:"solver verdict = brute force on tiny CNFs"
    ~gen:cnf_gen ~print:pp_cnf (fun c ->
      let s, _vars = Dimacs.to_solver c in
      let verdict = Solver.solve s in
      (verdict = Solver.Sat) = brute_force_sat c)

let suite =
  ( "prop_equiv",
    [
      prop_sat_agrees_with_exhaustive;
      prop_self_and_complement;
      prop_fixed_inputs_partial_eval;
      prop_dimacs_roundtrip;
      prop_solver_matches_brute_force;
    ] )
