(** Fault-injected oracles and resource-budgeted attacks: the faulty
    oracle wrappers replay deterministically under a fixed seed, the
    majority-vote combinator repairs flip noise, and attacks report
    structured outcomes instead of hanging or raising on imperfect
    oracles. *)

open Util
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Faulty = Orap_core.Faulty_oracle
module Budget = Orap_attacks.Budget
module Sat_attack = Orap_attacks.Sat_attack
module Evaluate = Orap_attacks.Evaluate
module Prng = Orap_sim.Prng

let base = random_netlist ~inputs:16 ~outputs:12 ~gates:140 17

let lk = Orap_locking.Random_ll.lock base ~key_size:10

let width = lk.Locked.num_regular_inputs

let inputs_of rng = Prng.bool_array rng width

(* --- determinism / zero-noise identity --- *)

let test_zero_noise_is_identity () =
  let clean = Oracle.functional lk in
  let noisy = Faulty.bit_flip ~seed:5 ~p:0.0 (Oracle.functional lk) in
  let rng = Prng.create 11 in
  for _ = 1 to 200 do
    let x = inputs_of rng in
    check Alcotest.bool "bit-identical at p=0" true
      (Oracle.query clean x = Oracle.query noisy x)
  done

let test_noise_is_seed_deterministic () =
  let run seed =
    let o = Faulty.bit_flip ~seed ~p:0.3 (Oracle.functional lk) in
    let rng = Prng.create 23 in
    List.init 100 (fun _ -> Oracle.query o (inputs_of rng))
  in
  check Alcotest.bool "same seed replays bit-identically" true
    (run 7 = run 7);
  check Alcotest.bool "different seed differs" false (run 7 = run 8)

let test_noise_corrupts () =
  let clean = Oracle.functional lk in
  let noisy = Faulty.bit_flip ~seed:5 ~p:1.0 (Oracle.functional lk) in
  let rng = Prng.create 31 in
  let diffs = ref 0 in
  for _ = 1 to 100 do
    let x = inputs_of rng in
    if Oracle.query clean x <> Oracle.query noisy x then incr diffs
  done;
  (* p=1.0 flips exactly one output bit of every response *)
  check Alcotest.int "every response corrupted at p=1" 100 !diffs

(* --- majority vote repairs flip noise --- *)

let test_retry_recovers_under_noise () =
  (* 10% per-query noise corrupts one bit; with 5 votes per bit the
     majority is wrong only if >=3 votes flip that same bit — vanishingly
     unlikely, so all 200 repaired responses must be clean *)
  let clean = Oracle.functional lk in
  let repaired =
    Faulty.retry ~votes:5 (Faulty.bit_flip ~seed:3 ~p:0.10 (Oracle.functional lk))
  in
  let rng = Prng.create 47 in
  let wrong = ref 0 in
  for _ = 1 to 200 do
    let x = inputs_of rng in
    if Oracle.query clean x <> Oracle.query repaired x then incr wrong
  done;
  check Alcotest.int "majority vote repairs 10% flip noise" 0 !wrong

let test_retry_burns_budget () =
  (* votes are real queries: retry over a 10-query budget refuses after
     3 repaired queries, not 10 *)
  let o =
    Faulty.retry ~votes:3
      (Faulty.query_budget ~limit:10 (Oracle.functional lk))
  in
  let rng = Prng.create 3 in
  ignore (Oracle.query o (inputs_of rng));
  ignore (Oracle.query o (inputs_of rng));
  ignore (Oracle.query o (inputs_of rng));
  check Alcotest.bool "4th repaired query refuses" true
    (match Oracle.query o (inputs_of rng) with
    | _ -> false
    | exception Faulty.Refused _ -> true)

(* --- stuck-at and intermittent wrappers --- *)

let test_stuck_at () =
  let o = Faulty.stuck_at ~cells:[ (0, true); (3, false) ] (Oracle.functional lk) in
  let rng = Prng.create 59 in
  for _ = 1 to 50 do
    let y = Oracle.query o (inputs_of rng) in
    check Alcotest.bool "cell 0 stuck at 1" true y.(0);
    check Alcotest.bool "cell 3 stuck at 0" false y.(3)
  done

let test_intermittent_lockdown () =
  (* the "locked" side answers under a wrong key (the cleared register) *)
  let wrong_key = Array.map not lk.Locked.correct_key in
  let locked_o = Oracle.with_key lk wrong_key in
  let rng = Prng.create 61 in
  (* rate 1.0: every query answers from the locked circuit *)
  let o = Faulty.intermittent ~seed:2 ~rate:1.0 ~locked:locked_o
      (Oracle.functional lk) in
  let reference = Oracle.with_key lk wrong_key in
  let all_locked = ref true in
  for _ = 1 to 50 do
    let x = inputs_of rng in
    if Oracle.query o x <> Oracle.query reference x then all_locked := false
  done;
  check Alcotest.bool "rate 1.0 always answers locked" true !all_locked;
  (* rate 0.0: the wrapper never intervenes *)
  let o0 = Faulty.intermittent ~seed:2 ~rate:0.0 ~locked:locked_o
      (Oracle.functional lk) in
  let unlocked = Oracle.functional lk in
  let clean = ref true in
  for _ = 1 to 50 do
    let x = inputs_of rng in
    if Oracle.query o0 x <> Oracle.query unlocked x then clean := false
  done;
  check Alcotest.bool "rate 0.0 never intervenes" true !clean

(* --- query budget --- *)

let test_query_budget_exhausts () =
  let o = Faulty.query_budget ~limit:5 (Oracle.functional lk) in
  let rng = Prng.create 71 in
  for _ = 1 to 5 do
    ignore (Oracle.query o (inputs_of rng))
  done;
  check Alcotest.bool "6th query refused" true
    (match Oracle.query o (inputs_of rng) with
    | _ -> false
    | exception Faulty.Refused _ -> true)

(* --- width validation in the oracle constructors --- *)

let test_width_validation () =
  let bad = Array.make (width + 1) false in
  let f = Oracle.functional lk in
  check Alcotest.bool "functional rejects wrong width" true
    (match Oracle.query f bad with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let wk = Oracle.with_key lk lk.Locked.correct_key in
  check Alcotest.bool "with_key rejects wrong width" true
    (match Oracle.query wk bad with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let design =
    Orap.protect ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:6 ()) lk
  in
  let chip = Chip.create design in
  Chip.unlock chip;
  let sc = Oracle.scan_chip chip in
  let bad_scan =
    Array.make (Orap.num_ext_inputs design + Orap.num_ffs design + 2) false
  in
  check Alcotest.bool "scan_chip rejects wrong width" true
    (match Oracle.query sc bad_scan with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- attacks return structured outcomes, never raise or hang --- *)

let test_sat_attack_oracle_refused () =
  (* SARLock needs ~2^k DIPs, so a 3-query budget dies mid-attack: the
     attack must report the refusal, not raise *)
  let lk_hard = Orap_locking.Sarlock.lock base ~key_size:10 in
  let o = Faulty.query_budget ~limit:3 (Oracle.functional lk_hard) in
  let r = Sat_attack.run lk_hard o in
  check Alcotest.bool "structured refusal" true
    (match r.Sat_attack.outcome with
    | Budget.Oracle_refused (Budget.Refusal _) -> true
    | _ -> false);
  (* the refused call itself is the 4th *)
  check Alcotest.bool "queries capped" true (r.Sat_attack.queries <= 4)

let test_sat_attack_wall_clock_exhausts () =
  (* a zero-second deadline trips before the first iteration *)
  let budget = Budget.make ~wall_clock_s:0.0 () in
  let r = Sat_attack.run ~budget lk (Oracle.functional lk) in
  check Alcotest.bool "wall-clock exhaustion" true
    (match r.Sat_attack.outcome with
    | Budget.Exhausted (Budget.Wall_clock _) -> true
    | _ -> false)

let test_sat_attack_conflict_budget_exhausts () =
  (* a 1-conflict budget cannot finish a real attack *)
  let budget = Budget.make ~max_conflicts:1 () in
  let lk2 = Orap_locking.Weighted.lock base ~key_size:12 ~ctrl_inputs:3 in
  let r = Sat_attack.run ~budget lk2 (Oracle.functional lk2) in
  check Alcotest.bool "conflict exhaustion or very early exact" true
    (match r.Sat_attack.outcome with
    | Budget.Exhausted (Budget.Conflicts _) -> true
    | Budget.Exact _ -> true (* trivially easy instance: no conflicts needed *)
    | _ -> false)

let test_sat_attack_noisy_oracle_terminates () =
  (* heavy noise makes oracle answers inconsistent with every key; the
     attack must detect that (Unsat on both miter sides) or hit a budget,
     never loop forever or raise *)
  let o = Faulty.bit_flip ~seed:13 ~p:1.0 (Oracle.functional lk) in
  let budget = Budget.make ~max_iterations:64 ~wall_clock_s:10.0 () in
  let r = Sat_attack.run ~budget lk o in
  check Alcotest.bool "noisy oracle yields a failure outcome" true
    (match r.Sat_attack.outcome with
    | Budget.Exhausted _ | Budget.Oracle_refused _ -> true
    | Budget.Exact _ | Budget.Approximate _ -> false)

let test_sat_attack_vs_orap_not_exact () =
  (* acceptance: against the OraP scan oracle the SAT attack terminates
     within budget with a non-Exact outcome (or an un-equivalent key) *)
  let design =
    Orap.protect
      ~config:
        { (Orap.default_config ~kind:Orap.Basic ~num_ffs:6 ()) with Orap.seed = 9 }
      lk
  in
  let chip = Chip.create design in
  Chip.unlock chip;
  let budget = Budget.make ~max_iterations:128 ~wall_clock_s:20.0 () in
  let r = Sat_attack.run ~budget lk (Oracle.scan_chip chip) in
  let ok =
    match r.Sat_attack.outcome with
    | Budget.Exhausted _ | Budget.Oracle_refused _ -> true
    | Budget.Exact _ | Budget.Approximate _ ->
      (* if it "recovered" something, it must not be the real function *)
      not (Evaluate.of_outcome lk r.Sat_attack.outcome).Evaluate.equivalent
  in
  check Alcotest.bool "OraP denies exact recovery within budget" true ok

let suite =
  ( "faulty-oracle",
    [
      tc "zero noise is the identity" `Quick test_zero_noise_is_identity;
      tc "noise replays per seed" `Quick test_noise_is_seed_deterministic;
      tc "p=1 corrupts every response" `Quick test_noise_corrupts;
      tc "majority vote repairs noise" `Quick test_retry_recovers_under_noise;
      tc "votes consume query budget" `Quick test_retry_burns_budget;
      tc "stuck-at scan cells" `Quick test_stuck_at;
      tc "intermittent lockdown" `Quick test_intermittent_lockdown;
      tc "query budget exhausts" `Quick test_query_budget_exhausts;
      tc "oracle width validation" `Quick test_width_validation;
      tc "SAT attack reports refusal" `Quick test_sat_attack_oracle_refused;
      tc "SAT attack honours deadline" `Quick test_sat_attack_wall_clock_exhausts;
      tc "SAT attack honours conflict budget" `Quick
        test_sat_attack_conflict_budget_exhausts;
      tc "SAT attack terminates on noise" `Quick
        test_sat_attack_noisy_oracle_terminates;
      tc "SAT attack non-exact behind OraP" `Quick
        test_sat_attack_vs_orap_not_exact;
    ] )
