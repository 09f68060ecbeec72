(** Key-sensitization attack (Yasin et al. [5]), SAT-assisted variant.

    For each key bit the attacker searches an input pattern that propagates
    that bit to a primary output while muting the other key inputs'
    interference; applying the pattern to the oracle then reveals the bit.
    Against OraP the sensitised values come from the reset LFSR, not from
    the secret key (Section II-A), so the read-out is garbage. *)

module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Tseitin = Orap_sat.Tseitin
module Prng = Orap_sim.Prng

(* find (x, k_rest) such that flipping key bit j flips some output; the
   sensitisation heuristic then assumes k_rest does not interfere.  Also
   returns the conflicts the search spent. *)
let sensitize (locked : Locked.t) j : (bool array * bool array) option * int =
  let solver = Solver.create () in
  let nl = locked.Locked.netlist in
  let nri = locked.Locked.num_regular_inputs in
  let ksz = Locked.key_size locked in
  let x_vars = Solver.new_vars solver nri in
  let k_vars = Solver.new_vars solver ksz in
  (* two copies differ only in key bit j *)
  let kj0 = Solver.new_var solver and kj1 = Solver.new_var solver in
  ignore (Solver.add_clause solver [ Lit.neg kj0 ]);
  ignore (Solver.add_clause solver [ Lit.pos kj1 ]);
  let input kj i =
    Lit.pos
      (if i < nri then x_vars.(i)
       else if i - nri = j then kj
       else k_vars.(i - nri))
  in
  let o0 = Tseitin.outputs nl (Tseitin.encode solver nl ~input:(input kj0)) in
  let o1 = Tseitin.outputs nl (Tseitin.encode solver nl ~input:(input kj1)) in
  Tseitin.clause solver (Array.to_list (Array.map2 (Tseitin.xor solver) o0 o1));
  let found =
    match Solver.decide solver with
    | `Unsat -> None
    | `Sat ->
      let x = Array.map (fun v -> Solver.model_value solver v) x_vars in
      let k_rest = Array.map (fun v -> Solver.model_value solver v) k_vars in
      Some (x, k_rest)
  in
  (found, Solver.num_conflicts solver)

(** [iterations] counts the sensitised bits: those for which a sensitising
    pattern existed. *)
let run ?(budget = Budget.default) ?(seed = 61) (locked : Locked.t)
    (oracle : Oracle.t) : Attack.result =
  Attack.span "key_sensitization" @@ fun () ->
  let clock = Budget.start budget in
  let queries0 = Oracle.num_queries oracle in
  let ksz = Locked.key_size locked in
  let rng = Prng.create seed in
  let key = Array.init ksz (fun _ -> Prng.bool rng) in
  let sensitized = ref 0 in
  let conflicts = ref 0 in
  let stopped = ref None in
  (try
     for j = 0 to ksz - 1 do
       (match Budget.check_iteration clock j with
       | Some r ->
         stopped := Some (Budget.Exhausted r);
         raise Exit
       | None -> ());
       let found, c = sensitize locked j in
       conflicts := !conflicts + c;
       match found with
       | None -> ()
       | Some (x, k_rest) -> (
         incr sensitized;
         match Budget.query oracle x with
         | Error r ->
           stopped := Some (Budget.Oracle_refused r);
           raise Exit
         | Ok y ->
           (* choose the bit value whose simulation matches the oracle *)
           let with_bit b =
             let k = Array.copy k_rest in
             k.(j) <- b;
             Locked.eval locked ~key:k ~inputs:x
           in
           if with_bit true = y then key.(j) <- true
           else if with_bit false = y then key.(j) <- false
           else
             (* interference: neither matches — keep the random guess *)
             ())
     done
   with Exit -> ());
  let queries = Oracle.num_queries oracle - queries0 in
  let outcome =
    match !stopped with
    | Some o -> o
    | None ->
      (* unsensitised bits stay random guesses: estimate the miss rate *)
      let err = float_of_int (ksz - !sensitized) /. float_of_int (max 1 ksz) in
      Budget.Approximate
        (key,
         Budget.stats_of clock ~iterations:!sensitized ~queries
           ~estimated_error:err ())
  in
  { Attack.outcome; iterations = !sensitized; queries; conflicts = !conflicts;
    elapsed_s = Budget.elapsed_s clock }
