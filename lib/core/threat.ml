(** Section III threat models: the five foundry-Trojan attack scenarios
    against OraP, each with the functional deviation it implants and the
    payload hardware it costs (the paper's security argument is that every
    scenario either fails functionally or needs a payload large enough for
    power side-channel detection [25]).

    Payload figures are in NAND2-equivalents, following the paper's own
    accounting: replacing a pulse generator's NAND2 by a NAND3 costs about
    half a NAND2 per cell ("roughly 64 NAND2 gates" for 128 cells); a
    2-to-1 MUX costs 3; a scan flip-flop 6; an XOR 3.  The Trojan trigger
    is on top of the payload and excluded, as in the paper. *)

module Scan = Orap_dft.Scan
module Symbolic = Orap_lfsr.Symbolic

type scenario = Chip.trojan =
  | Suppress_cell_resets  (** (a) NAND3 swap in every pulse generator *)
  | Exclude_lfsr_from_scan  (** (b) stem suppression + bypass MUXes *)
  | Shadow_register  (** (c) shadow copy of the key register *)
  | Xor_tree_key  (** (d) seed registers + XOR trees *)
  | Freeze_state_ffs  (** (e) hold the FFs through unlocking *)

let all_scenarios =
  [
    Suppress_cell_resets;
    Exclude_lfsr_from_scan;
    Shadow_register;
    Xor_tree_key;
    Freeze_state_ffs;
  ]

let scenario_label = function
  | Suppress_cell_resets -> "(a) suppress per-cell reset"
  | Exclude_lfsr_from_scan -> "(b) exclude LFSR from scan"
  | Shadow_register -> "(c) shadow key register"
  | Xor_tree_key -> "(d) XOR-tree key reconstruction"
  | Freeze_state_ffs -> "(e) freeze FFs during unlock"

(* NAND2-equivalent cost constants *)
let nand3_extra_cost = 0.5
let mux2_cost = 3.0
let scan_ff_cost = 6.0
let xor2_cost = 3.0
let freeze_gate_cost = 4.0  (* a few gates on the FF enable/reset stems *)

(** Payload of a scenario against a given design, in NAND2-equivalents. *)
let payload (design : Orap.t) = function
  | Suppress_cell_resets ->
    nand3_extra_cost *. float_of_int (Orap.key_size design)
  | Exclude_lfsr_from_scan ->
    (* one bypass MUX per key cell that hands over to a state FF in the
       chain (the interleaving guideline maximises this), plus the single
       stem gate *)
    (mux2_cost *. float_of_int (Scan.bypass_mux_count design.Orap.chain))
    +. nand3_extra_cost
  | Shadow_register ->
    let n = float_of_int (Orap.key_size design) in
    (scan_ff_cost +. mux2_cost) *. n
  | Xor_tree_key ->
    (* symbolic over every memory injection of the schedule; in the
       modified scheme the response-driven contributions make the real
       payload even larger, so this is a lower bound *)
    let exprs, seed_bits =
      Symbolic.unroll (Orap.memory_lfsr design)
        (List.map (fun c -> c.Orap.memory <> None) design.Orap.schedule)
    in
    (xor2_cost *. float_of_int (Symbolic.xor_tree_gates exprs))
    +. (scan_ff_cost *. float_of_int seed_bits)
    +. (mux2_cost *. float_of_int (Orap.key_size design))
  | Freeze_state_ffs -> freeze_gate_cost

(** Outcome of running a scenario's attack procedure end to end. *)
type outcome = {
  scenario : scenario;
  oracle_obtained : bool;
      (** did the attacker end up with correct-response scan access (or the
          key itself)? *)
  payload_nand2 : float;
  detectable : bool;  (** payload above the side-channel threshold *)
}

(** Side-channel detection threshold (NAND2-equivalents).  Variation-aware
    power analysis with circuit partitioning detects "very small Trojans"
    [25]; the default is deliberately conservative. *)
let default_detection_threshold = 10.0

(* does scan access return correct (unlocked) responses on this chip? *)
let scan_access_correct (design : Orap.t) chip =
  let locked = design.Orap.locked in
  let oracle = Oracle.scan_chip chip in
  let reference = Oracle.functional locked in
  let rng = Orap_sim.Prng.create 555 in
  let width = Orap.num_ext_inputs design + Orap.num_ffs design in
  let trials = 24 in
  let ok = ref true in
  for _ = 1 to trials do
    let inputs = Orap_sim.Prng.bool_array rng width in
    if Oracle.query oracle inputs <> Oracle.query reference inputs then
      ok := false
  done;
  !ok

(* scenario (a): steal the key straight from the scan chain *)
let stolen_key_via_dump design chip =
  let dump = Chip.scan_dump chip in
  let n = Orap.key_size design in
  let key = Array.make n false in
  let seen = ref 0 in
  Array.iter
    (fun (cell, bit) ->
      match cell with
      | Scan.Key i ->
        key.(i) <- bit;
        incr seen
      | Scan.State _ -> ())
    dump;
  if !seen = n then Some key else None

(* scenario (e): scan in a chosen state, unlock with frozen FFs, run one
   functional cycle, scan the response out; compare with the true response *)
let freeze_attack_succeeds design chip =
  let rng = Orap_sim.Prng.create 777 in
  let nff = Orap.num_ffs design in
  let next = Orap.num_ext_inputs design in
  let trials = 8 in
  let ok = ref true in
  for _ = 1 to trials do
    let state = Orap_sim.Prng.bool_array rng nff in
    let ext = Orap_sim.Prng.bool_array rng next in
    (* attacker: load state via scan (key register resets, harmlessly) *)
    Chip.scan_load chip ~state;
    Chip.set_scan_enable chip false;
    (* Trojan freezes the FFs while the controller unlocks *)
    Chip.unlock chip;
    (* one functional clock on the attacker's state *)
    let ext_outs = Chip.functional_cycle chip ~ext_inputs:ext in
    let captured = Chip.ff_state chip in
    (* ground truth from the unprotected functional oracle *)
    let reference = Oracle.functional design.Orap.locked in
    let truth = Oracle.query reference (Array.append ext state) in
    let true_ext, true_ffs = Orap.split_outputs design truth in
    if not (ext_outs = true_ext && captured = true_ffs) then ok := false
  done;
  !ok

(** Execute a scenario end to end against a freshly fabricated chip. *)
let run (design : Orap.t) (scenario : scenario) : outcome =
  let chip = Chip.create ~trojan:scenario design in
  let oracle_obtained =
    match scenario with
    | Suppress_cell_resets ->
      (* buy a chip from the open market: it arrives activated *)
      Chip.unlock chip;
      (match stolen_key_via_dump design chip with
      | Some key -> key = design.Orap.locked.Orap_locking.Locked.correct_key
      | None -> false)
    | Exclude_lfsr_from_scan | Shadow_register | Xor_tree_key ->
      Chip.unlock chip;
      scan_access_correct design chip
    | Freeze_state_ffs -> freeze_attack_succeeds design chip
  in
  let p = payload design scenario in
  {
    scenario;
    oracle_obtained;
    payload_nand2 = p;
    detectable = p >= default_detection_threshold;
  }

(** The paper's verdict: a scenario is defeated when it either fails to
    obtain the oracle or is exposed by side-channel Trojan detection. *)
let defeated outcome = (not outcome.oracle_obtained) || outcome.detectable
