open Util
module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Sat_attack = Orap_attacks.Sat_attack
module Appsat = Orap_attacks.Appsat
module Double_dip = Orap_attacks.Double_dip
module Hill_climb = Orap_attacks.Hill_climb
module Key_sensitization = Orap_attacks.Key_sensitization
module Evaluate = Orap_attacks.Evaluate
module Budget = Orap_attacks.Budget

let base = random_netlist ~inputs:20 ~outputs:14 ~gates:180 91

let orap_oracle lk =
  let design =
    Orap.protect
      ~config:{ (Orap.default_config ~kind:Orap.Basic ~num_ffs:7 ()) with Orap.seed = 4 }
      lk
  in
  let chip = Chip.create design in
  Chip.unlock chip;
  Oracle.scan_chip chip

let test_sat_beats_random_ll () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:14 in
  let r = Sat_attack.run lk (Oracle.functional lk) in
  let v = Evaluate.of_outcome lk r.Sat_attack.outcome in
  check Alcotest.bool "equivalent key" true v.Evaluate.equivalent;
  check Alcotest.bool "proved" true
    (match r.Sat_attack.outcome with Budget.Exact _ -> true | _ -> false);
  check Alcotest.bool "few DIPs" true (r.Sat_attack.iterations < 40)

let test_sat_beats_weighted () =
  let lk = Orap_locking.Weighted.lock base ~key_size:15 ~ctrl_inputs:3 in
  let r = Sat_attack.run lk (Oracle.functional lk) in
  let v = Evaluate.of_outcome lk r.Sat_attack.outcome in
  check Alcotest.bool "equivalent key" true v.Evaluate.equivalent

let test_sat_fails_behind_orap () =
  let lk = Orap_locking.Weighted.lock base ~key_size:15 ~ctrl_inputs:3 in
  let r = Sat_attack.run lk (orap_oracle lk) in
  let v = Evaluate.of_outcome lk r.Sat_attack.outcome in
  check Alcotest.bool "no functional key" false v.Evaluate.equivalent

let test_sat_query_accounting () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:10 in
  let oracle = Oracle.functional lk in
  let r = Sat_attack.run lk oracle in
  check Alcotest.int "one query per DIP" r.Sat_attack.iterations r.Sat_attack.queries

let test_shared_oracle_query_delta () =
  (* regression: [queries] used to report the oracle's LIFETIME counter, so
     the second attack against a shared oracle inherited the first one's
     queries.  Both runs are identical, so both must report the same
     per-run delta — and the oracle's lifetime total must be their sum. *)
  let lk = Orap_locking.Random_ll.lock base ~key_size:10 in
  let oracle = Oracle.functional lk in
  let r1 = Sat_attack.run lk oracle in
  let after_first = Oracle.num_queries oracle in
  let r2 = Sat_attack.run lk oracle in
  check Alcotest.int "identical runs report identical queries"
    r1.Sat_attack.queries r2.Sat_attack.queries;
  check Alcotest.int "second run reports its own delta"
    (Oracle.num_queries oracle - after_first)
    r2.Sat_attack.queries;
  check Alcotest.int "lifetime total = sum of deltas"
    (Oracle.num_queries oracle)
    (r1.Sat_attack.queries + r2.Sat_attack.queries)

let test_sat_iteration_cap () =
  let lk = Orap_locking.Sarlock.lock base ~key_size:14 in
  let r = Sat_attack.run ~max_iterations:20 lk (Oracle.functional lk) in
  check Alcotest.bool "cap hit" true
    (match r.Sat_attack.outcome with
    | Budget.Exhausted (Budget.Iterations 20) -> true
    | _ -> false);
  check Alcotest.int "stopped at cap" 20 r.Sat_attack.iterations

let test_sarlock_one_key_per_dip () =
  (* SARLock's whole point: the SAT attack cannot finish in << 2^k DIPs *)
  let lk = Orap_locking.Sarlock.lock base ~key_size:8 in
  let r = Sat_attack.run ~max_iterations:1000 lk (Oracle.functional lk) in
  check Alcotest.bool "needs nearly 2^8 DIPs" true (r.Sat_attack.iterations > 100);
  let v = Evaluate.of_outcome lk r.Sat_attack.outcome in
  check Alcotest.bool "eventually equivalent" true v.Evaluate.equivalent

let test_appsat_approximates_sarlock () =
  (* AppSAT settles early with an approximate (low-error) key *)
  let lk = Orap_locking.Sarlock.lock base ~key_size:14 in
  let r =
    Appsat.run ~max_iterations:64 ~probe_every:4 ~error_threshold:0.05 lk
      (Oracle.functional lk)
  in
  (match Budget.recovered r.Appsat.outcome with
  | None -> Alcotest.fail "AppSAT should settle on an approximate key"
  | Some key ->
    let hd = Locked.hamming_vs_original lk key in
    check Alcotest.bool "low-error key" true (hd < 5.0));
  check Alcotest.bool "settled before cap" true (r.Appsat.iterations < 64)

let test_appsat_exact_on_weak_locking () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:12 in
  let r = Appsat.run lk (Oracle.functional lk) in
  let v = Evaluate.of_outcome lk r.Appsat.outcome in
  check Alcotest.bool "equivalent" true v.Evaluate.equivalent

let test_double_dip () =
  let lk = Orap_locking.Weighted.lock base ~key_size:12 ~ctrl_inputs:3 in
  let r = Double_dip.run lk (Oracle.functional lk) in
  let v = Evaluate.of_outcome lk r.Double_dip.outcome in
  check Alcotest.bool "equivalent" true v.Evaluate.equivalent;
  (* and fails behind OraP *)
  let r2 = Double_dip.run lk (orap_oracle lk) in
  let v2 = Evaluate.of_outcome lk r2.Double_dip.outcome in
  check Alcotest.bool "fails behind OraP" false v2.Evaluate.equivalent

let test_hill_climb_recovers_small_random_key () =
  (* independent key bits: greedy descent works *)
  let lk = Orap_locking.Random_ll.lock base ~key_size:8 in
  let r = Hill_climb.run ~sample:64 ~restarts:5 lk (Oracle.functional lk) in
  let v = Evaluate.of_outcome lk r.outcome in
  check Alcotest.bool "recovered" true v.Evaluate.equivalent;
  check Alcotest.bool "zero residual mismatches" true
    (match r.outcome with
    | Budget.Approximate (_, st) -> st.Budget.estimated_error = 0.0
    | _ -> false)

let test_hill_climb_fails_behind_orap () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:8 in
  let r = Hill_climb.run ~sample:64 ~restarts:5 lk (orap_oracle lk) in
  let v = Evaluate.of_outcome lk r.outcome in
  check Alcotest.bool "not equivalent" false v.Evaluate.equivalent

let test_hill_climb_on_responses () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:8 in
  (* unlocked responses recover; locked responses do not *)
  let rng = Orap_sim.Prng.create 3 in
  let good =
    List.init 64 (fun _ ->
        let x = Orap_sim.Prng.bool_array rng lk.Locked.num_regular_inputs in
        (x, Locked.eval lk ~key:lk.Locked.correct_key ~inputs:x))
  in
  let r = Hill_climb.run_on_responses ~restarts:5 lk good in
  check Alcotest.bool "recovers from unlocked responses" true
    (Evaluate.of_outcome lk r.outcome).Evaluate.equivalent;
  let zero_key = Array.make 8 false in
  let locked_pairs =
    List.map (fun (x, _) -> (x, Locked.eval lk ~key:zero_key ~inputs:x)) good
  in
  let r2 = Hill_climb.run_on_responses ~restarts:5 lk locked_pairs in
  (* converges to the zero key's behaviour, not to the secret *)
  check Alcotest.bool "locked responses mislead" false
    (Evaluate.of_outcome lk r2.outcome).Evaluate.equivalent

let test_key_sensitization_counts () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:8 in
  let r = Key_sensitization.run lk (Oracle.functional lk) in
  check Alcotest.bool "most bits sensitizable" true (r.iterations >= 6);
  check Alcotest.int "one query per sensitized bit" r.iterations r.queries

(* a spent deadline stops every attack before it does any work *)
let test_every_attack_honours_wall_clock () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:8 in
  let budget = Budget.make ~wall_clock_s:0.0 () in
  List.iter
    (fun (a : Orap_attacks.Key_recovery.t) ->
      let r = a.run ~budget lk (Oracle.functional lk) in
      check Alcotest.string a.name "exhausted: wall-clock budget of 0.00s spent"
        (Budget.outcome_to_string r.outcome);
      check Alcotest.bool (a.name ^ " is a Wall_clock stop") true
        (match r.outcome with
        | Budget.Exhausted (Budget.Wall_clock _) -> true
        | _ -> false))
    Orap_attacks.Key_recovery.all

let test_evaluate_verdicts () =
  let lk = Orap_locking.Random_ll.lock base ~key_size:8 in
  let v = Evaluate.of_key lk (Some lk.Locked.correct_key) in
  check Alcotest.bool "exact" true (v.Evaluate.exact && v.Evaluate.equivalent);
  let v2 = Evaluate.of_key lk None in
  check Alcotest.bool "none" false v2.Evaluate.recovered;
  check Alcotest.bool "string form" true
    (String.length (Evaluate.to_string v) > 0)

(* a, b, c regular inputs and one key bit k:
     g1 = AND(a, b) and g2 = OR(g1, c) hold no key input, g3 = XOR(g2, k)
     does; outputs g3 and g2 *)
let key_free_fixture () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b and bb = N.Builder.add_input b in
  let c = N.Builder.add_input b and k = N.Builder.add_input ~name:"key0" b in
  let g1 = N.Builder.add_node b Orap_netlist.Gate.And [| a; bb |] in
  let g2 = N.Builder.add_node b Orap_netlist.Gate.Or [| g1; c |] in
  let g3 = N.Builder.add_node b Orap_netlist.Gate.Xor [| g2; k |] in
  N.Builder.mark_output b g3;
  N.Builder.mark_output b g2;
  let nl = N.Builder.finish b in
  { Locked.original = nl; netlist = nl; num_regular_inputs = 3;
    correct_key = [| false |]; technique = "fixture" }

let test_miter_shares_key_free_cone () =
  let module Miter = Orap_attacks.Miter in
  let m = Sat_attack.miter (key_free_fixture ()) in
  let vars () = Orap_sat.Solver.num_vars m.Miter.solver in
  let clauses () = Orap_sat.Solver.num_clauses m.Miter.solver in
  (* 3 inputs + 2 key copies, g1..g3 once, g3 again for copy 1, the guard
     and one XOR for output g3 (g2 is shared): an unshared miter would
     take 14 *)
  check Alcotest.int "miter variables" 11 (vars ());
  (* g1, g2: 3 clauses each; g3 twice and the output XOR: 4 each; the
     guarded difference: 1 *)
  check Alcotest.int "miter clauses" 19 (clauses ());
  check Alcotest.bool "shared output" true (m.Miter.outs.(0).(1) = m.Miter.outs.(1).(1));
  (* one IO constraint: the DIP folds g1 and g2 to constants and g3 to
     -k in each copy, so it adds no variables and no clauses, only units *)
  Miter.add_io m [| true; true; false |] [| false; true |];
  check Alcotest.int "variables after one DIP" 11 (vars ());
  check Alcotest.int "clauses after one DIP" 19 (clauses ())

(* add_io rejects a DIP or a response of the wrong width *)
let test_add_io_checks_widths () =
  let module Miter = Orap_attacks.Miter in
  let m = Sat_attack.miter (key_free_fixture ()) in
  let raises name dip y =
    match Miter.add_io m dip y with
    | () -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument msg ->
      check Alcotest.bool (name ^ ": " ^ msg) true
        (String.starts_with ~prefix:"Miter.add_io: " msg)
  in
  raises "short DIP" [| true; true |] [| false; true |];
  raises "long DIP" [| true; true; false; true |] [| false; true |];
  raises "short response" [| true; true; false |] [| false |];
  raises "long response" [| true; true; false |] [| false; true; true |];
  Miter.add_io m [| true; true; false |] [| false; true |]

let suite =
  ( "attacks",
    [
      tc "SAT beats random locking" `Quick test_sat_beats_random_ll;
      tc "SAT beats weighted locking" `Quick test_sat_beats_weighted;
      tc "SAT fails behind OraP" `Quick test_sat_fails_behind_orap;
      tc "SAT query accounting" `Quick test_sat_query_accounting;
      tc "shared oracle reports per-run deltas" `Quick
        test_shared_oracle_query_delta;
      tc "SAT iteration cap" `Quick test_sat_iteration_cap;
      tc "SARLock resists (slowly falls)" `Slow test_sarlock_one_key_per_dip;
      tc "AppSAT approximates SARLock" `Quick test_appsat_approximates_sarlock;
      tc "AppSAT exact on weak locking" `Quick test_appsat_exact_on_weak_locking;
      tc "Double DIP" `Quick test_double_dip;
      tc "hill climbing recovers small keys" `Quick test_hill_climb_recovers_small_random_key;
      tc "hill climbing fails behind OraP" `Quick test_hill_climb_fails_behind_orap;
      tc "hill climbing on test responses" `Quick test_hill_climb_on_responses;
      tc "key sensitization" `Quick test_key_sensitization_counts;
      tc "every attack honours a spent wall clock" `Quick
        test_every_attack_honours_wall_clock;
      tc "verdict evaluation" `Quick test_evaluate_verdicts;
      tc "miter shares the key-free cone" `Quick
        test_miter_shares_key_free_cone;
      tc "add_io checks widths" `Quick test_add_io_checks_widths;
    ] )
