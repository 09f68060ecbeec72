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
   sensitisation heuristic then assumes k_rest does not interfere.  The
   search is one budgeted solve on [clock]. *)
let sensitize clock (locked : Locked.t) j =
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
  match Budget.solve clock solver with
  | Error r -> Error r
  | Ok Budget.Unsat -> Ok None
  | Ok Budget.Sat ->
    let x = Array.map (fun v -> Solver.model_value solver v) x_vars in
    let k_rest = Array.map (fun v -> Solver.model_value solver v) k_vars in
    Ok (Some (x, k_rest))

(** [iterations] counts the sensitised bits: those for which a sensitising
    pattern existed.  The budget's conflict cap spans all per-bit solves. *)
let run ?(budget = Budget.default) (locked : Locked.t) (oracle : Oracle.t) :
    Attack.result =
  let clock = Budget.start budget in
  Attack.measure ~name:"key_sensitization" ~clock ~oracle @@ fun () ->
  let ksz = Locked.key_size locked in
  let rng = Prng.create 61 in
  let key = Array.init ksz (fun _ -> Prng.bool rng) in
  let sensitized = ref 0 in
  (* read key bit [j] and the ones after it *)
  let rec read j =
    if j = ksz then
      (* unsensitised bits stay random guesses: estimate the miss rate *)
      Budget.Approximate
        (key, float_of_int (ksz - !sensitized) /. float_of_int (max 1 ksz))
    else
      match Budget.check_iteration clock j with
      | Some r -> Budget.Exhausted r
      | None -> (
        match sensitize clock locked j with
        | Error r -> Budget.Exhausted r
        | Ok None -> read (j + 1)
        | Ok (Some (x, k_rest)) -> (
          incr sensitized;
          match Budget.query oracle x with
          | Error msg -> Budget.Oracle_refused msg
          | Ok y ->
            (* choose the bit value whose simulation matches the oracle;
               under interference neither does: keep the random guess *)
            let with_bit b =
              let k = Array.copy k_rest in
              k.(j) <- b;
              Locked.eval locked ~key:k ~inputs:x
            in
            if with_bit true = y then key.(j) <- true
            else if with_bit false = y then key.(j) <- false;
            read (j + 1)))
  in
  let outcome = read 0 in
  (outcome, !sensitized)
