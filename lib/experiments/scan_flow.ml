(** Manufacturing-test flow through the protected chip (the Table-II story
    told end to end).

    ATPG runs on the protected combinational core with the key inputs as
    free inputs (the LFSR cells are scannable).  Each deterministic pattern
    is then turned into a *scan program* — shift the state and key portions
    into the chains, apply the external inputs at the pins, capture, shift
    out — and executed against the cycle-accurate chip model.  The flow
    checks that:
    - every observed response equals the locked core's prediction (the chip
      is tested exactly as ATPG assumed — *locked*, per the OraP protocol);
    - the key register never holds the secret key during the session; and
    - the tester never needed the unlock sequence. *)

module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Atpg = Orap_atpg.Atpg

type result = {
  patterns_applied : int;
  responses_match_prediction : bool;
  key_register_never_secret : bool;
  atpg_coverage_pct : float;
}

let run (design : Orap.t) : result =
  let locked = design.Orap.locked in
  let nl = locked.Locked.netlist in
  let report = Atpg.run ~random_words:16 ~backtrack_limit:64 nl in
  let chip = Chip.create design in
  let n_ext = Orap.num_ext_inputs design in
  let n_ffs = Orap.num_ffs design in
  let n_key = Orap.key_size design in
  let all_match = ref true in
  let never_secret = ref true in
  let applied = ref 0 in
  List.iter
    (fun pattern ->
      (* pattern covers ext ++ ffs ++ key, in the locked core's input order *)
      let ext = Array.sub pattern 0 n_ext in
      let state = Array.sub pattern n_ext n_ffs in
      let key = Array.sub pattern (n_ext + n_ffs) n_key in
      let ext_outs, captured = Chip.scan_test ~key chip ~state ~ext_inputs:ext in
      incr applied;
      let predicted = Locked.eval locked ~key ~inputs:(Array.append ext state) in
      let p_ext, p_ffs = Orap.split_outputs design predicted in
      if not (ext_outs = p_ext && captured = p_ffs) then all_match := false;
      if Chip.key_register chip = locked.Locked.correct_key then
        never_secret := false)
    report.Atpg.patterns;
  {
    patterns_applied = !applied;
    responses_match_prediction = !all_match;
    key_register_never_secret = !never_secret;
    atpg_coverage_pct = Atpg.coverage report;
  }
