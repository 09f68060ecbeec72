(** Ablations of the design choices DESIGN.md calls out:

    - A1: key-gate site selection — fault-impact ranking (with and without
      near-critical-path avoidance) vs. random sites: output corruption and
      delay overhead;
    - A2: control-gate width — corruption vs. key-gate count (also exercised
      by [examples/design_space.exe]);
    - A3: LFSR vs. plain shift register as key register — scenario-(d)
      XOR-tree payload (the paper's reason for the LFSR);
    - A4: basic vs. modified scheme — unlock latency and scenario-(e)
      verdict. *)

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

let site_selection ?(seed = 6) ?(num_gates = 1200) ?(key_size = 30) () :
    a1_row list =
  let nl =
    Benchgen.generate
      { Benchgen.seed; num_inputs = 64; num_outputs = 48; num_gates }
  in
  let mo = Abc.evaluate nl in
  let measure policy params_avoid random_sites =
    let locked =
      if random_sites then Orap_locking.Random_ll.lock ~seed nl ~key_size
      else
        Weighted.lock
          ~params:
            {
              (Weighted.default_params ~key_size ~ctrl_inputs:3) with
              Weighted.avoid_critical = params_avoid;
              seed;
            }
          nl ~key_size ~ctrl_inputs:3
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
    {
      policy;
      hd_pct = !hd_sum /. 3.0;
      delay_overhead_pct =
        (if mo.Abc.levels = 0 then 0.0
         else
           100.0
           *. float_of_int (max 0 (mp.Abc.levels - mo.Abc.levels))
           /. float_of_int mo.Abc.levels);
    }
  in
  [
    measure "fault-impact, slack-aware" true false;
    measure "fault-impact, unrestricted" false false;
    measure "random sites (EPIC)" true true;
  ]

let a1_report rows =
  let t =
    Report.create ~title:"A1: key-gate site selection"
      ~header:[ "Policy"; "HD random key (%)"; "Delay overhead (%)" ]
      ~aligns:[ Report.L; Report.R; Report.R ]
  in
  List.iter
    (fun r ->
      Report.add_row t
        [ r.policy; Report.f1 r.hd_pct; Report.f1 r.delay_overhead_pct ])
    rows;
  t

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
  let t =
    Report.create ~title:"A3: key-register structure vs XOR-tree Trojan payload"
      ~header:[ "Register"; "Mean terms/cell"; "XOR-tree gates" ]
      ~aligns:[ Report.L; Report.R; Report.R ]
  in
  List.iter
    (fun r ->
      Report.add_row t
        [ r.register; Report.f1 r.mean_terms; Report.d r.xor_gates ])
    rows;
  t

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
  let t =
    Report.create ~title:"A4: basic vs modified OraP"
      ~header:[ "Scheme"; "Unlock cycles"; "Scenario (e) defeated" ]
      ~aligns:[ Report.L; Report.R; Report.L ]
  in
  List.iter
    (fun r ->
      Report.add_row t
        [ r.scheme; Report.d r.unlock_cycles; Report.b r.freeze_defeated ])
    rows;
  t
