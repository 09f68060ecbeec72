(** Security experiments: the behavioural claims of Figs. 1–3 and the
    attack-vs-oracle matrix of Section II-A.

    - F1 (Fig. 1): asserting [scan_enable] clears the key register before
      the first shift, so scan responses are locked-circuit responses.
    - F2 (Fig. 2): the pulse generator fires exactly on 0-to-1 transitions.
    - F3 (Fig. 3): the modified scheme unlocks correctly in the honest
      closed loop, and the key depends on the circuit responses produced
      while unlocking (freezing the FFs corrupts it).
    - S1: SAT attack and variants against a functional (unprotected) oracle
      vs. the OraP scan oracle.
    - S3: hill climbing on locked test responses and key sensitization. *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Locked = Orap_locking.Locked
module Weighted = Orap_locking.Weighted
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Pulse_gen = Orap_dft.Pulse_gen
module Prng = Orap_sim.Prng
module Attack = Orap_attacks.Attack
module Budget = Orap_attacks.Budget
module Hill_climb = Orap_attacks.Hill_climb
module Key_recovery = Orap_attacks.Key_recovery
module Evaluate = Orap_attacks.Evaluate

type fixture = {
  nl : N.t;
  locked : Locked.t;
  basic : Orap.t;
  modified : Orap.t;
}

(** Raised by {!make_fixture} with the lock's message when the circuit
    cannot hold the key. *)
exception Cannot_lock of string

(* a 48-input, 36-output circuit under weighted locking (control width 3) *)
let make_fixture ?(seed = 12) ?(num_gates = 500) ?(key_size = 32) () : fixture =
  let num_outputs = 36 in
  let nl = Benchgen.generate { Benchgen.seed; num_inputs = 48; num_outputs; num_gates } in
  let locked =
    try Weighted.lock nl ~key_size ~ctrl_inputs:3
    with Invalid_argument msg -> raise (Cannot_lock msg)
  in
  let num_ffs = num_outputs / 2 in
  let mk kind =
    Orap.protect
      ~config:{ (Orap.default_config ~kind ~num_ffs ()) with Orap.seed = seed }
      locked
  in
  { nl; locked; basic = mk Orap.Basic; modified = mk Orap.Modified }

(* --- the attacker's oracle --- *)

type oracle_kind = Functional | Orap_scan

let oracle_slug = function Functional -> "functional" | Orap_scan -> "orap"

(** A fresh oracle of the given kind: the locked netlist under its correct
    key (an unprotected chip), or an unlocked basic-scheme OraP chip queried
    through its scan chain, which answers with the key register cleared. *)
let oracle (fx : fixture) = function
  | Functional -> Oracle.functional fx.locked
  | Orap_scan ->
    let chip = Chip.create fx.basic in
    Chip.unlock chip;
    Oracle.scan_chip chip

(* --- F1: key register clears on scan start --- *)

type fig1_result = {
  unlock_key_correct : bool;
  key_cleared_on_scan : bool;
  scan_responses_locked : bool;
}

let fig1 (fx : fixture) : fig1_result =
  let chip = Chip.create fx.basic in
  Chip.unlock chip;
  let unlock_key_correct =
    Chip.key_register chip = fx.locked.Locked.correct_key
  in
  Chip.set_scan_enable chip true;
  let key_cleared_on_scan =
    Array.for_all (fun b -> not b) (Chip.key_register chip)
  in
  Chip.set_scan_enable chip false;
  (* a fresh unlocked chip, queried through scan, must answer locked *)
  let scan = oracle fx Orap_scan in
  let reference = oracle fx Functional in
  let rng = Prng.create 2 in
  let width = Orap.num_ext_inputs fx.basic + Orap.num_ffs fx.basic in
  let corrupted = ref 0 in
  let trials = 32 in
  for _ = 1 to trials do
    let x = Prng.bool_array rng width in
    if Oracle.query scan x <> Oracle.query reference x then incr corrupted
  done;
  {
    unlock_key_correct;
    key_cleared_on_scan;
    scan_responses_locked = !corrupted > trials / 2;
  }

(* --- F2: pulse generator edge behaviour --- *)

type fig2_result = {
  fires_on_rising_edge : bool;
  silent_on_level_hold : bool;
  silent_on_falling_edge : bool;
}

let fig2 () : fig2_result =
  let g = Pulse_gen.create () in
  let r1 = Pulse_gen.observe g ~scan_enable:false in
  let rising = Pulse_gen.observe g ~scan_enable:true in
  let hold = Pulse_gen.observe g ~scan_enable:true in
  let falling = Pulse_gen.observe g ~scan_enable:false in
  let rising2 = Pulse_gen.observe g ~scan_enable:true in
  {
    fires_on_rising_edge = rising && rising2 && not r1;
    silent_on_level_hold = not hold;
    silent_on_falling_edge = not falling;
  }

(* --- F3: response feedback is necessary in the modified scheme --- *)

type fig3_result = {
  honest_unlock_correct : bool;
  frozen_ffs_break_unlock : bool;
  responses_differ_from_basic : bool;
}

let fig3 (fx : fixture) : fig3_result =
  let honest = Chip.create fx.modified in
  Chip.unlock honest;
  let honest_unlock_correct =
    Chip.key_register honest = fx.locked.Locked.correct_key
  in
  let frozen = Chip.create ~trojan:Chip.Freeze_state_ffs fx.modified in
  (* put a nonzero state into the FFs first, as the attack would *)
  Chip.scan_load frozen
    ~state:(Array.init (Orap.num_ffs fx.modified) (fun i -> i land 1 = 0));
  Chip.set_scan_enable frozen false;
  Chip.unlock frozen;
  let frozen_ffs_break_unlock =
    Chip.key_register frozen <> fx.locked.Locked.correct_key
  in
  (* basic scheme is insensitive to the same freeze *)
  let basic_frozen = Chip.create ~trojan:Chip.Freeze_state_ffs fx.basic in
  Chip.unlock basic_frozen;
  let basic_still_correct =
    Chip.key_register basic_frozen = fx.locked.Locked.correct_key
  in
  {
    honest_unlock_correct;
    frozen_ffs_break_unlock;
    responses_differ_from_basic = basic_still_correct;
  }

(* --- S1: the attack matrix --- *)

type attack_row = {
  attack : string;
  oracle_kind : string;
  verdict : Evaluate.verdict;
  iterations : int;
  queries : int;
}

let attack_matrix (fx : fixture) : attack_row list =
  let budget = Budget.make ~max_iterations:128 () in
  List.concat_map
    (fun (kind, oracle_kind) ->
      List.map
        (fun (a : Key_recovery.t) ->
          let r = a.run ~budget fx.locked (oracle fx kind) in
          { attack = a.name; oracle_kind;
            verdict = Evaluate.of_outcome fx.locked r.outcome;
            iterations = r.iterations; queries = r.queries })
        Key_recovery.all)
    [ (Functional, "unprotected"); (Orap_scan, "OraP scan") ]

let attack_report rows : Report.t =
  Report.table ~title:"Oracle-based attacks vs. oracle protection (S1/S3)"
    [ Report.col ~align:L "Attack" (fun r -> r.attack);
      Report.col ~align:L "Oracle" (fun r -> r.oracle_kind);
      Report.col ~align:L "Outcome" (fun r -> Evaluate.to_string r.verdict);
      Report.col "Iters" (fun r -> Report.d r.iterations);
      Report.col "Queries" (fun r -> Report.d r.queries) ]
    rows

(* --- S3: hill-climbing on manufacturing-test responses --- *)

(** Under OraP the chip is tested locked, so designer-released test
    responses are locked-circuit responses (key register cleared).  The
    climb must not recover the key from them. *)
let hill_climb_on_test_responses (fx : fixture) : Evaluate.verdict =
  let scan = oracle fx Orap_scan in
  let width = Orap.num_ext_inputs fx.basic + Orap.num_ffs fx.basic in
  let pairs =
    Result.get_ok (Attack.sample scan ~inputs:width (Prng.create 77) 48)
  in
  let r = Hill_climb.run_on_responses fx.locked pairs in
  Evaluate.of_outcome fx.locked r.outcome
