open Util
module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Weighted = Orap_locking.Weighted
module Random_ll = Orap_locking.Random_ll
module Sarlock = Orap_locking.Sarlock
module Antisat = Orap_locking.Antisat
module Fault_impact = Orap_locking.Fault_impact
module Prng = Orap_sim.Prng

let base = random_netlist ~inputs:24 ~outputs:16 ~gates:220 55

let test_weighted_correct_key () =
  let lk = Weighted.lock base ~key_size:18 ~ctrl_inputs:3 in
  check Alcotest.bool "equivalent under correct key" true
    (unlocks lk lk.Locked.correct_key)

let test_weighted_wrong_key_corrupts () =
  let lk = Weighted.lock base ~key_size:18 ~ctrl_inputs:3 in
  let wrong = Array.map not lk.Locked.correct_key in
  check Alcotest.bool "complement key corrupts" true
    (Locked.hamming_vs_original lk wrong > 5.0)

let test_weighted_single_group_actuation () =
  (* flipping one bit actuates exactly its group's key gate *)
  let lk = Weighted.lock base ~key_size:18 ~ctrl_inputs:3 in
  let k = Array.copy lk.Locked.correct_key in
  k.(4) <- not k.(4);
  let hd = Locked.hamming_vs_original lk k in
  check Alcotest.bool "one wrong bit corrupts" true (hd > 0.0);
  (* a fully wrong group corrupts no more gates than one wrong bit in it *)
  let k2 = Array.copy lk.Locked.correct_key in
  k2.(3) <- not k2.(3);
  k2.(4) <- not k2.(4);
  k2.(5) <- not k2.(5);
  check Alcotest.bool "same group actuation" true
    (Locked.hamming_vs_original lk k2 > 0.0)

let test_weighted_structure () =
  let lk = Weighted.lock base ~key_size:18 ~ctrl_inputs:3 in
  check Alcotest.int "key inputs appended" (N.num_inputs base + 18)
    (N.num_inputs lk.Locked.netlist);
  check Alcotest.int "outputs preserved" (N.num_outputs base)
    (N.num_outputs lk.Locked.netlist);
  (* 6 control gates + 6 key gates *)
  check Alcotest.int "gate increase" (N.gate_count base + 12)
    (N.gate_count lk.Locked.netlist)

let test_key_groups_math () =
  check Alcotest.int "even split" 6 (Weighted.num_key_gates ~key_size:18 ~ctrl_inputs:3);
  check Alcotest.int "remainder group" 7 (Weighted.num_key_gates ~key_size:19 ~ctrl_inputs:3);
  check Alcotest.int "w=1" 18 (Weighted.num_key_gates ~key_size:18 ~ctrl_inputs:1)

let test_weighted_too_small_circuit () =
  let tiny = random_netlist ~inputs:4 ~outputs:2 ~gates:6 1 in
  match Weighted.lock tiny ~key_size:64 ~ctrl_inputs:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_random_ll () =
  let lk = Random_ll.lock base ~key_size:16 in
  check Alcotest.bool "equivalent under correct key" true
    (unlocks lk lk.Locked.correct_key);
  let k = Array.copy lk.Locked.correct_key in
  k.(0) <- not k.(0);
  check Alcotest.bool "one wrong bit corrupts" true
    (Locked.hamming_vs_original lk k > 0.0)

let test_sarlock_point_function () =
  let lk = Sarlock.lock base ~key_size:12 in
  check Alcotest.bool "equivalent under correct key" true
    (unlocks lk lk.Locked.correct_key);
  (* a wrong key corrupts at most one input pattern: HD is tiny *)
  let wrong = Array.map not lk.Locked.correct_key in
  let hd = Locked.hamming_vs_original ~words:16 lk wrong in
  check Alcotest.bool "point-function corruption" true (hd < 0.5);
  (* and the corrupted input is exactly the wrong key guess *)
  let inputs = Array.make (N.num_inputs base) false in
  Array.iteri (fun j b -> if j < 12 then inputs.(j) <- b) wrong;
  let y = Locked.eval lk ~key:wrong ~inputs in
  let y_ref = Locked.eval lk ~key:lk.Locked.correct_key ~inputs in
  check Alcotest.bool "flips at its own guess" true (y <> y_ref)

let test_antisat () =
  let lk = Antisat.lock base ~key_size:16 in
  check Alcotest.bool "equivalent under correct key" true
    (unlocks lk lk.Locked.correct_key);
  (* any key with equal halves is also correct (the Anti-SAT key class) *)
  let n = Array.length lk.Locked.correct_key / 2 in
  let rng = Prng.create 5 in
  let half = Prng.bool_array rng n in
  check Alcotest.bool "equal halves unlock" true
    (unlocks lk (Array.append half half));
  (* unequal halves corrupt *)
  let half2 = Array.copy half in
  half2.(0) <- not half2.(0);
  check Alcotest.bool "unequal halves corrupt" false
    (unlocks lk (Array.append half half2))

let test_fault_impact_ranking () =
  let scores = Fault_impact.scores base in
  check Alcotest.bool "non-negative" true (Array.for_all (fun s -> s >= 0) scores);
  (* inputs are never scored *)
  Array.iter
    (fun i -> check Alcotest.int "input unscored" 0 scores.(i))
    (N.inputs base)

let test_top_sites_distinct () =
  let sites = Fault_impact.top_sites base ~count:20 in
  check Alcotest.int "requested count" 20 (Array.length sites);
  let sorted = Array.copy sites in
  Array.sort compare sorted;
  let dups = ref 0 in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then incr dups
  done;
  check Alcotest.int "distinct" 0 !dups

let test_top_sites_avoid_critical () =
  let slack = N.slacks base in
  let sites = Fault_impact.top_sites ~min_slack:2 base ~count:8 in
  (* with plenty of candidates, picked sites should be off-critical *)
  Array.iter
    (fun s -> check Alcotest.bool "off critical" true (slack.(s) >= 2))
    sites

let prop_weighted_equivalence =
  Prop.to_alcotest ~count:15 ~name:"weighted locking is invisible under the correct key"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:12 ~outputs:8 ~gates:100 seed in
      let lk = Weighted.lock nl ~key_size:9 ~ctrl_inputs:3 in
      unlocks lk lk.Locked.correct_key)

let prop_random_wrong_keys_corrupt =
  Prop.to_alcotest ~count:15 ~name:"complement keys corrupt outputs"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:12 ~outputs:8 ~gates:100 seed in
      let lk = Weighted.lock nl ~key_size:9 ~ctrl_inputs:3 in
      (* the complement actuates every key gate; 256 words make even
         low-observability sites show up *)
      let k = Array.map not lk.Locked.correct_key in
      Locked.hamming_vs_original ~words:256 lk k > 0.0)

let suite =
  ( "locking",
    [
      tc "weighted: correct key equivalence" `Quick test_weighted_correct_key;
      tc "weighted: wrong key corrupts" `Quick test_weighted_wrong_key_corrupts;
      tc "weighted: group actuation" `Quick test_weighted_single_group_actuation;
      tc "weighted: structure" `Quick test_weighted_structure;
      tc "weighted: key group math" `Quick test_key_groups_math;
      tc "weighted: too-small circuit" `Quick test_weighted_too_small_circuit;
      tc "random locking" `Quick test_random_ll;
      tc "sarlock point function" `Quick test_sarlock_point_function;
      tc "anti-sat key class" `Quick test_antisat;
      tc "fault-impact ranking" `Quick test_fault_impact_ranking;
      tc "top sites distinct" `Quick test_top_sites_distinct;
      tc "top sites avoid critical path" `Quick test_top_sites_avoid_critical;
      prop_weighted_equivalence;
      prop_random_wrong_keys_corrupt;
    ] )
