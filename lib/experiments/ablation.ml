(** Ablations of the design choices DESIGN.md calls out, printed by
    [orap ablation]:

    - A1: key-gate site selection — fault-impact ranking (with and without
      near-critical-path avoidance) vs. random sites: output corruption and
      delay overhead;
    - A3: LFSR vs. plain shift register as key register — scenario-(d)
      XOR-tree payload (the paper's reason for the LFSR);
    - A4: basic vs. modified scheme — unlock latency and scenario-(e)
      verdict.

    A2 (control-gate width: corruption vs. key-gate count) lives in
    [examples/design_space.exe], which also sweeps A3 over key-sequence
    lengths. *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Fault_impact = Orap_locking.Fault_impact
module Orap = Orap_core.Orap
module Threat = Orap_core.Threat
module Lfsr = Orap_lfsr.Lfsr
module Symbolic = Orap_lfsr.Symbolic
module Abc = Orap_synth.Abc_script
module Prng = Orap_sim.Prng

(* A1: site-selection policy *)

type a1_row = {
  policy : string;
  hd_pct : float;
  delay_overhead_pct : float;
}

let site_selection ?(num_gates = 1200) ?(key_size = 30) () : a1_row list =
  let seed = 6 in
  let nl =
    Benchgen.generate
      { Benchgen.seed; num_inputs = 64; num_outputs = 48; num_gates }
  in
  let mo = Abc.evaluate nl in
  let measure policy avoid_critical random_sites =
    let locked =
      if random_sites then Orap_locking.Random_ll.lock ~seed nl ~key_size
      else
        Weighted.lock ~seed ~avoid_critical nl ~key_size ~ctrl_inputs:3
    in
    let rng = Prng.create (seed + 1) in
    let hd_sum = ref 0.0 in
    for _ = 1 to 3 do
      hd_sum :=
        !hd_sum
        +. Locked.hamming_vs_original locked
             (Prng.bool_array rng (Locked.key_size locked))
    done;
    let mp = Abc.evaluate locked.Locked.netlist in
    let o = Abc.overhead ~original:mo ~protected_:mp ~extra_ands:0 in
    { policy; hd_pct = !hd_sum /. 3.0; delay_overhead_pct = o.Abc.delay_pct }
  in
  [
    measure "fault-impact, slack-aware" true false;
    measure "fault-impact, unrestricted" false false;
    measure "random sites (EPIC)" true true;
  ]

let a1_report rows =
  Report.table ~title:"A1: key-gate site selection"
    [ Report.col ~align:L "Policy" (fun r -> r.policy);
      Report.col "HD random key (%)" (fun r -> Report.f1 r.hd_pct);
      Report.col "Delay overhead (%)" (fun r -> Report.f1 r.delay_overhead_pct) ]
    rows

(* A3: key-register structure vs scenario-(d) payload *)

type a3_row = { register : string; mean_terms : float; xor_gates : int }

let key_register_structure ?(size = 96) ?(num_seeds = 6) ?(free_run = 8) () :
    a3_row list =
  let schedule taps =
    let lfsr = Lfsr.create ?taps ~size () in
    let seed = true :: List.init free_run (fun _ -> false) in
    let injects = List.concat (List.init num_seeds (fun _ -> seed)) in
    fst (Symbolic.unroll lfsr injects)
  in
  let row register exprs =
    {
      register;
      mean_terms = Symbolic.mean_terms exprs;
      xor_gates = Symbolic.xor_tree_gates exprs;
    }
  in
  [
    row "LFSR (tap every 8 cells)" (schedule None);
    row "plain shift register" (schedule (Some (Array.make size false)));
  ]

let a3_report rows =
  Report.table ~title:"A3: key-register structure vs XOR-tree Trojan payload"
    [ Report.col ~align:L "Register" (fun r -> r.register);
      Report.col "Mean terms/cell" (fun r -> Report.f1 r.mean_terms);
      Report.col "XOR-tree gates" (fun r -> Report.d r.xor_gates) ]
    rows

(* A4: basic vs modified *)

type a4_row = {
  scheme : string;
  unlock_cycles : int;
  freeze_defeated : bool;
}

let scheme_comparison (fx : Security.fixture) : a4_row list =
  let row name design =
    let o = Threat.run design Threat.Freeze_state_ffs in
    {
      scheme = name;
      unlock_cycles = Orap.unlock_cycles design;
      freeze_defeated = Threat.defeated o;
    }
  in
  [
    row "basic (Fig. 1)" fx.Security.basic;
    row "modified (Fig. 3)" fx.Security.modified;
  ]

let a4_report rows =
  Report.table ~title:"A4: basic vs modified OraP"
    [ Report.col ~align:L "Scheme" (fun r -> r.scheme);
      Report.col "Unlock cycles" (fun r -> Report.d r.unlock_cycles);
      Report.col ~align:L "Scenario (e) defeated" (fun r ->
          Report.b r.freeze_defeated) ]
    rows
