(** Locking-layer properties.  Every scheme must be invisible under the
    correct key (proved against the original by [Equiv]) and the point-function
    schemes must be provably corrupted under wrong keys; verdicts are
    cross-checked against random-pattern simulation so the SAT path and
    the simulation path audit each other. *)

open Util
module Locked = Orap_locking.Locked
module Random_ll = Orap_locking.Random_ll
module Weighted = Orap_locking.Weighted
module Sarlock = Orap_locking.Sarlock
module Antisat = Orap_locking.Antisat
module Equiv = Orap_proptest.Equiv

let benchgen = Gen.benchgen_netlist ~inputs:8 ~outputs:4 ~gates:50

let with_seed g = Gen.pair g (Gen.int_range 0 0x3FFFFFFF)

(* P: XOR/XNOR random locking is transparent under the correct key *)
let prop_random_ll_correct_key =
  Prop.to_alcotest ~count:25 ~name:"random_ll: correct key is transparent"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:8 in
      unlocks lk lk.Locked.correct_key)

(* P: weighted locking is transparent under the correct key *)
let prop_weighted_correct_key =
  Prop.to_alcotest ~count:20 ~name:"weighted: correct key is transparent"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Weighted.lock ~seed nl ~key_size:9 ~ctrl_inputs:3 in
      unlocks lk lk.Locked.correct_key)

(* P: SARLock is transparent under the correct key and provably corrupted
   under EVERY wrong key (its comparator flips an output exactly on the
   matching input pattern) *)
let prop_sarlock_keys =
  Prop.to_alcotest ~count:20
    ~name:"sarlock: correct key transparent, any wrong key caught"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Sarlock.lock ~seed nl ~key_size:6 in
      let correct = lk.Locked.correct_key in
      let rng = Prng.create (seed + 1) in
      let wrong = Array.copy correct in
      (* flip 1..k random bits: never equal to the correct key afterwards *)
      let flips = 1 + Prng.int rng (Array.length wrong) in
      for _ = 1 to flips do
        let j = Prng.int rng (Array.length wrong) in
        wrong.(j) <- not wrong.(j)
      done;
      let wrong = if wrong = correct then (wrong.(0) <- not wrong.(0); wrong) else wrong in
      unlocks lk correct
      && (match Equiv.sat_equiv nl (keyed lk wrong) with
         | Equiv.Inequivalent cex ->
           Equiv.counterexample_valid nl (keyed lk wrong) cex
         | Equiv.Equivalent -> false))

(* P: Anti-SAT is transparent under the correct key; flipping one bit of
   one half makes the two halves disagree, which provably corrupts the
   protected output on some pattern *)
let prop_antisat_keys =
  Prop.to_alcotest ~count:20
    ~name:"antisat: correct key transparent, split key caught"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Antisat.lock ~seed nl ~key_size:8 in
      let correct = lk.Locked.correct_key in
      let rng = Prng.create (seed + 2) in
      let wrong = Array.copy correct in
      let j = Prng.int rng (Array.length wrong) in
      wrong.(j) <- not wrong.(j);
      unlocks lk correct
      && Equiv.sat_equiv nl (keyed lk wrong) <> Equiv.Equivalent)

(* P: differential audit — on a random key guess, the SAT verdict, the
   random-simulation proxy and Locked.eval must tell one coherent story *)
let prop_verdicts_cross_check =
  Prop.to_alcotest ~count:25 ~name:"miter, random sim and Locked.eval agree"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:6 in
      let rng = Prng.create (seed + 3) in
      let guess =
        if Prng.bool rng then lk.Locked.correct_key
        else Prng.bool_array rng (Locked.key_size lk)
      in
      let specialized = keyed lk guess in
      (* Locked.eval must equal simulation of the specialised netlist *)
      let eval_agrees = ref true in
      for _ = 1 to 32 do
        let x = Prng.bool_array rng lk.Locked.num_regular_inputs in
        if Locked.eval lk ~key:guess ~inputs:x <> Sim.eval_bools specialized x
        then eval_agrees := false
      done;
      let sim_equal = equivalent_on_random ~seed:(seed + 4) nl specialized in
      match Equiv.sat_equiv nl specialized with
      | Equiv.Equivalent ->
        (* SAT proof of equality: sampling cannot find a difference *)
        !eval_agrees && sim_equal
      | Equiv.Inequivalent cex ->
        (* the counterexample must be real; sampling may or may not hit one *)
        !eval_agrees && Equiv.counterexample_valid nl specialized cex)

let suite =
  ( "prop_locking",
    [
      prop_random_ll_correct_key;
      prop_weighted_correct_key;
      prop_sarlock_keys;
      prop_antisat_keys;
      prop_verdicts_cross_check;
    ] )
