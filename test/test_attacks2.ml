(** SPS and removal attacks, and the scan-test flow (late additions). *)

open Util
module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Sps = Orap_attacks.Sps
module Removal = Orap_attacks.Removal
module Orap = Orap_core.Orap
module E = Orap_experiments

let base = random_netlist ~inputs:24 ~outputs:18 ~gates:250 101

let test_sps_flags_antisat () =
  let lk = Orap_locking.Antisat.lock base ~key_size:24 in
  let r = Sps.analyze lk.Locked.netlist in
  (* the Anti-SAT Y = g & ~g' signal is heavily skewed toward 0 *)
  check Alcotest.bool "skewed signal found" true (List.length r.Sps.findings > 0);
  check Alcotest.bool "max skew near half" true (r.Sps.max_skew > 0.45)

let test_sps_attack_repairs_antisat () =
  let lk = Orap_locking.Antisat.lock base ~key_size:24 in
  match Sps.attack lk with
  | None -> Alcotest.fail "SPS should find the flip signal"
  | Some (repaired, finding) ->
    check Alcotest.bool "extreme skew" true
      (finding.Sps.probability < 0.1 || finding.Sps.probability > 0.9);
    (* tying the skewed signal to its constant behaves as the original on
       (vastly dominant) random inputs, independent of the dangling keys *)
    let rng = Orap_sim.Prng.create 4 in
    let ok = ref true in
    for _ = 1 to 64 do
      let inp = Orap_sim.Prng.bool_array rng (N.num_inputs repaired) in
      let orig_in = Array.sub inp 0 (N.num_inputs base) in
      if
        Orap_sim.Sim.eval_bools repaired inp
        <> Orap_sim.Sim.eval_bools base orig_in
      then ok := false
    done;
    check Alcotest.bool "anti-sat stripped" true !ok

let test_sps_quiet_on_weighted () =
  (* weighted locking does not ADD skewed signals (Section II-A): the
     locked circuit's extreme-skew findings are those of the base circuit *)
  let lk = Orap_locking.Weighted.lock base ~key_size:18 ~ctrl_inputs:3 in
  let locked_r = Sps.analyze ~epsilon:0.002 lk.Locked.netlist in
  let base_r = Sps.analyze ~epsilon:0.002 base in
  check Alcotest.bool "no new extreme-skew signals" true
    (List.length locked_r.Sps.findings <= List.length base_r.Sps.findings + 1)

let test_sps_probabilities_range () =
  let p = Sps.signal_probabilities base in
  check Alcotest.bool "in [0,1]" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) p)

let test_removal_on_naked_netlist () =
  (* structurally identifiable key gates: removal recovers the original *)
  let lk = Orap_locking.Random_ll.lock base ~key_size:12 in
  let r = Removal.attack lk in
  check Alcotest.int "all key gates found" 12 r.Removal.removed_key_gates;
  check Alcotest.bool "original recovered" true (Removal.recovers_original lk r)

let test_removal_on_weighted () =
  let lk = Orap_locking.Weighted.lock base ~key_size:12 ~ctrl_inputs:3 in
  let r = Removal.attack lk in
  check Alcotest.int "key gates found" 4 r.Removal.removed_key_gates;
  check Alcotest.bool "original recovered" true (Removal.recovers_original lk r)

let test_removal_fails_after_resynthesis () =
  (* after strash/refactor the key logic dissolves; the heuristic finds
     little and the result no longer matches the original *)
  let lk = Orap_locking.Weighted.lock base ~key_size:12 ~ctrl_inputs:3 in
  let resynth = Orap_synth.Aig.to_netlist (Orap_synth.Abc_script.optimize lk.Locked.netlist) in
  (* rebuild a Locked.t view of the resynthesised netlist *)
  let lk' = { lk with Locked.netlist = resynth } in
  let r = Removal.attack lk' in
  check Alcotest.bool "does not recover the original" false
    (r.Removal.removed_key_gates = 4 && Removal.recovers_original lk' r)

let test_scan_flow () =
  let fx = E.Security.make_fixture ~num_gates:260 ~key_size:18 () in
  let r = E.Scan_flow.run fx.E.Security.basic in
  check Alcotest.bool "patterns applied" true (r.E.Scan_flow.patterns_applied > 0);
  check Alcotest.bool "responses match" true r.E.Scan_flow.responses_match_prediction;
  check Alcotest.bool "secret never exposed" true
    r.E.Scan_flow.key_register_never_secret;
  check Alcotest.bool "coverage sane" true (r.E.Scan_flow.atpg_coverage_pct > 60.0)

let test_ablation_site_selection () =
  let rows = E.Ablation.site_selection ~num_gates:600 ~key_size:18 () in
  check Alcotest.int "three policies" 3 (List.length rows);
  (* slack-aware policy must not be slower than the unrestricted one *)
  match rows with
  | [ aware; unrestricted; _random ] ->
    check Alcotest.bool "slack-aware no slower" true
      (aware.E.Ablation.delay_overhead_pct
       <= unrestricted.E.Ablation.delay_overhead_pct +. 1e-9
       || unrestricted.E.Ablation.delay_overhead_pct = 0.0)
  | _ -> Alcotest.fail "unexpected rows"

(* A3 and A4 rows as recorded before the unlock schedule became one cycle
   list *)
let test_ablation_register_structure () =
  check
    Alcotest.(list (triple string (float 0.0) int))
    "A3 rows"
    [ ("LFSR (tap every 8 cells)", 50.71875, 4773);
      ("plain shift register", 6.0, 480) ]
    (List.map
       (fun r -> E.Ablation.(r.register, r.mean_terms, r.xor_gates))
       (E.Ablation.key_register_structure ()))

let test_ablation_scheme_comparison () =
  let fx = E.Security.make_fixture ~num_gates:260 ~key_size:18 () in
  check
    Alcotest.(list (triple string int bool))
    "A4 rows"
    [ ("basic (Fig. 1)", 15, false); ("modified (Fig. 3)", 20, true) ]
    (List.map
       (fun r -> E.Ablation.(r.scheme, r.unlock_cycles, r.freeze_defeated))
       (E.Ablation.scheme_comparison fx))

let suite =
  ( "attacks2",
    [
      tc "SPS flags Anti-SAT" `Quick test_sps_flags_antisat;
      tc "SPS attack strips Anti-SAT" `Quick test_sps_attack_repairs_antisat;
      tc "SPS quiet on weighted locking" `Quick test_sps_quiet_on_weighted;
      tc "SPS probability bounds" `Quick test_sps_probabilities_range;
      tc "removal on naked random LL" `Quick test_removal_on_naked_netlist;
      tc "removal on naked weighted LL" `Quick test_removal_on_weighted;
      tc "removal fails after resynthesis" `Quick test_removal_fails_after_resynthesis;
      tc "scan-test flow end to end" `Slow test_scan_flow;
      tc "ablation: site selection" `Slow test_ablation_site_selection;
      tc "ablation: register structure" `Quick test_ablation_register_structure;
      tc "ablation: scheme comparison" `Quick test_ablation_scheme_comparison;
    ] )
