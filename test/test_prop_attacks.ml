(** Attack-layer properties: when an oracle-guided attack claims an exact
    key on an unlockable instance, that key must survive an independent
    equivalence proof against the original circuit ([Equiv]) — the
    paper's own success criterion, applied to our implementations.  The
    shared miter under those attacks, and its key-equivalence prover, are
    checked against exhaustive simulation and [Equiv]. *)

open Util
module Locked = Orap_locking.Locked
module Random_ll = Orap_locking.Random_ll
module Weighted = Orap_locking.Weighted
module Sarlock = Orap_locking.Sarlock
module Antisat = Orap_locking.Antisat
module Oracle = Orap_core.Oracle
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Faulty = Orap_core.Faulty_oracle
module Budget = Orap_attacks.Budget
module Key_recovery = Orap_attacks.Key_recovery
module Miter = Orap_attacks.Miter
module Attack = Orap_attacks.Attack
module Sat_attack = Orap_attacks.Sat_attack
module Appsat = Orap_attacks.Appsat
module Double_dip = Orap_attacks.Double_dip
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Equiv = Orap_proptest.Equiv
module Prng = Orap_sim.Prng

let benchgen = Gen.benchgen_netlist ~inputs:8 ~outputs:4 ~gates:40

let with_seed g = Gen.pair g (Gen.int_range 0 0x3FFFFFFF)

(* P: the SAT attack against a functional oracle on random locking always
   terminates Exact, and the recovered key is proved equivalent — even when
   it differs bitwise from the inserted key *)
let prop_sat_attack_exact_key_is_equivalent =
  Prop.to_alcotest ~count:12
    ~name:"sat attack key passes the miter check"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:6 in
      let r = Sat_attack.run lk (Oracle.functional lk) in
      match r.Sat_attack.outcome with
      | Budget.Exact key -> unlocks lk key
      | _ -> false)

(* P: Double DIP terminates on SARLock-locked circuits (the scheme it was
   designed to defeat) with a key proved equivalent *)
let prop_double_dip_defeats_sarlock =
  Prop.to_alcotest ~count:8
    ~name:"double dip key on sarlock passes the miter check"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Sarlock.lock ~seed nl ~key_size:4 in
      let r = Double_dip.run ~max_iterations:512 lk (Oracle.functional lk) in
      match r.Double_dip.outcome with
      | Budget.Exact key | Budget.Approximate (key, _) -> unlocks lk key
      | _ -> false)

(* P: a claimed Exact proof is sound relative to the oracle — replaying
   every recorded query against the recovered key shows no mismatch (here
   via fresh random queries, the attack's own validation path) *)
let prop_sat_attack_validation_is_clean =
  Prop.to_alcotest ~count:8
    ~name:"sat attack self-validation never demotes a clean oracle run"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:5 in
      let r = Sat_attack.run ~validate:64 lk (Oracle.functional lk) in
      match r.Sat_attack.outcome with
      | Budget.Exact _ -> true
      | _ -> false)

(* --- the shared miter against exhaustive simulation --- *)

(* Random full-vocabulary DAGs of 3-4 inputs under each locking scheme,
   with at most 4 key bits: (x, k1, k2) spans at most 12 bits. *)
let small_locked rng =
  let params =
    { Gen.default_params with Gen.inputs = (3, 4); outputs = (1, 3); gates = (16, 30) }
  in
  let scheme = Gen.int_range 0 3 rng and seed = Gen.int_range 0 0x3FFFFFFF rng in
  let lock nl =
    match scheme with
    | 0 -> Random_ll.lock ~seed nl ~key_size:3
    | 1 -> Weighted.lock ~seed nl ~key_size:4 ~ctrl_inputs:2
    | 2 -> Sarlock.lock ~seed nl ~key_size:3
    | _ -> Antisat.lock ~seed nl ~key_size:4
  in
  (* weighted locking needs two observable key-gate sites: redraw circuits
     that lack them *)
  let rec draw () =
    match lock (Gen.netlist ~params () rng) with
    | lk -> lk
    | exception Invalid_argument _ -> draw ()
  in
  draw ()

let bits n v = Array.init n (fun i -> (v lsr i) land 1 = 1)

let print_locked (lk : Locked.t) =
  Printf.sprintf "%s, %d regular inputs, key %d:\n%s" lk.Locked.technique
    lk.Locked.num_regular_inputs (Locked.key_size lk)
    (Orap_netlist.Bench_format.print lk.Locked.netlist)

(* P: the two-copy miter is SAT under its guard iff some input and key
   pair make the copies' outputs differ in simulation — and a model is
   such a witness *)
let prop_miter_matches_simulation =
  Prop.to_alcotest ~count:60 ~print:print_locked
    ~name:"shared miter is SAT iff simulation finds a disagreeing key pair"
    ~gen:small_locked (fun lk ->
      let nri = lk.Locked.num_regular_inputs and ksz = Locked.key_size lk in
      let eval x k = Locked.eval lk ~key:k ~inputs:x in
      let disagree =
        List.exists
          (fun x ->
            let row = List.init (1 lsl ksz) (fun k -> eval (bits nri x) (bits ksz k)) in
            List.exists (( <> ) (List.hd row)) row)
          (List.init (1 lsl nri) Fun.id)
      in
      let m = Sat_attack.miter lk in
      match Solver.solve ~assumptions:[| m.Miter.activate |] m.Miter.solver with
      | Solver.Sat ->
        let v = Array.map (Solver.model_value m.Miter.solver) in
        let x = v m.Miter.x_vars in
        disagree && eval x (v m.Miter.keys.(0)) <> eval x (v m.Miter.keys.(1))
      | Solver.Unsat -> not disagree
      | Solver.Unknown -> false)

(* P: after 1-3 IO constraints (x, y), each y the answer of some key or
   drawn freely, the keys either copy may still take are exactly those
   that simulation says answer every y on its x; when no key does, the
   attack's candidate search reports the oracle inconsistent *)
let prop_add_io_keeps_agreeing_keys =
  Prop.to_alcotest ~count:60 ~print:(fun (lk, _) -> print_locked lk)
    ~name:"add_io leaves exactly the keys that agree with every IO pair"
    ~gen:(Gen.pair small_locked (Gen.int_range 0 0x3FFFFFFF)) (fun (lk, seed) ->
      let nri = lk.Locked.num_regular_inputs and ksz = Locked.key_size lk in
      let nout = Orap_netlist.Netlist.num_outputs lk.Locked.netlist in
      let rng = Prng.create seed in
      let pairs =
        List.init (1 + Prng.int rng 3) (fun _ ->
            let x = Prng.bool_array rng nri in
            if Prng.bool rng then
              (x, Locked.eval lk ~key:(Prng.bool_array rng ksz) ~inputs:x)
            else (x, Prng.bool_array rng nout))
      in
      let m = Sat_attack.miter lk in
      List.iter (fun (x, y) -> Miter.add_io m x y) pairs;
      let fits key =
        List.for_all (fun (x, y) -> Locked.eval lk ~key ~inputs:x = y) pairs
      in
      let admits copy key =
        let assumptions =
          Array.append
            [| Lit.negate m.Miter.activate |]
            (Array.map2
               (fun v b -> Lit.of_var ~negated:(not b) v)
               m.Miter.keys.(copy) key)
        in
        Solver.solve ~assumptions m.Miter.solver = Solver.Sat
      in
      let keys = List.init (1 lsl ksz) (bits ksz) in
      List.for_all
        (fun key -> List.for_all (fun c -> admits c key = fits key) [ 0; 1 ])
        keys
      && (List.exists fits keys
         ||
         let ctx = { Attack.clock = Budget.start Budget.default; miter = m } in
         Attack.candidate ctx = Error Budget.Inconsistent))

(* --- the key-equivalence prover against Equiv --- *)

(* A Gen netlist locked by Random LL, weighted locking, SARLock or
   Anti-SAT, and two keys to compare: random, or the first with one bit
   flipped (SARLock then differs on a single pattern).  Anti-SAT's pair is
   two unequal keys of its K1 = K2 class, which unlock the same function. *)
let locked_key_pair rng =
  let params = { Gen.default_params with Gen.inputs = (5, 14); gates = (20, 60) } in
  let scheme = Gen.int_range 0 3 rng and seed = Gen.int_range 0 0x3FFFFFFF rng in
  let lock nl =
    match scheme with
    | 0 -> Random_ll.lock ~seed nl ~key_size:6
    | 1 -> Weighted.lock ~seed nl ~key_size:6 ~ctrl_inputs:2
    | 2 -> Sarlock.lock ~seed nl ~key_size:5
    | _ -> Antisat.lock ~seed nl ~key_size:6
  in
  let rec draw () =
    match lock (Gen.netlist ~params () rng) with
    | lk -> lk
    | exception Invalid_argument _ -> draw ()
  in
  let lk = draw () in
  let ksz = Locked.key_size lk in
  let ka, kb =
    if scheme = 3 then
      let half () = Prng.bool_array rng (ksz / 2) in
      let h1 = half () and h2 = half () in
      (Array.append h1 h1, Array.append h2 h2)
    else
      let ka = Prng.bool_array rng ksz in
      if Prng.bool rng then (ka, Prng.bool_array rng ksz)
      else begin
        let kb = Array.copy ka in
        let j = Prng.int rng ksz in
        kb.(j) <- not kb.(j);
        (ka, kb)
      end
  in
  (lk, ka, kb)

(* P: [Miter.equivalent_keys] agrees with [Equiv] on the two keyed
   netlists *)
let prop_equivalent_keys_matches_equiv =
  Prop.to_alcotest ~count:80 ~print:(fun (lk, _, _) -> print_locked lk)
    ~name:"miter key-equivalence agrees with Equiv"
    ~gen:locked_key_pair (fun (lk, ka, kb) ->
      Miter.equivalent_keys lk ka kb = Equiv.equivalent (keyed lk ka) (keyed lk kb))

(* --- AppSAT and Double DIP on Random LL and weighted locking --- *)

let locked_rll_or_weighted =
  Gen.map
    (fun ((nl, weighted), seed) ->
      if weighted then Weighted.lock ~seed nl ~key_size:6 ~ctrl_inputs:2
      else Random_ll.lock ~seed nl ~key_size:6)
    (with_seed (Gen.pair benchgen Gen.bool))

let attacks =
  [ ("appsat", fun lk o -> (Appsat.run lk o).Appsat.outcome);
    ("double dip", fun lk o -> (Double_dip.run lk o).Double_dip.outcome) ]

(* P: against a functional oracle, AppSAT and Double DIP end Exact with a
   key proved equivalent *)
let prop_appsat_ddip_exact_key_is_equivalent =
  Prop.to_alcotest ~count:10
    ~name:"appsat and double dip keys pass the miter check"
    ~gen:locked_rll_or_weighted (fun lk ->
      List.for_all
        (fun (_, attack) ->
          match attack lk (Oracle.functional lk) with
          | Budget.Exact key -> unlocks lk key
          | _ -> false)
        attacks)

(* P: through the scan port of an unlocked OraP chip, neither AppSAT nor
   Double DIP recovers an equivalent key.  The chip answers with the key
   register it cleared; on the rare draw where that key happens to be
   functionally correct there is nothing to protect, and the case holds
   vacuously. *)
let prop_appsat_ddip_fail_behind_orap =
  Prop.to_alcotest ~count:8
    ~name:"appsat and double dip recover no equivalent key through OraP scan"
    ~gen:locked_rll_or_weighted (fun lk ->
      let design =
        Orap.protect ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:2 ()) lk
      in
      let chip = Chip.create design in
      Chip.unlock chip;
      let nri = lk.Locked.num_regular_inputs in
      let scan = Oracle.scan_chip chip in
      let faithful =
        List.for_all
          (fun x ->
            let x = bits nri x in
            Oracle.query scan x
            = Locked.eval lk ~key:lk.Locked.correct_key ~inputs:x)
          (List.init (1 lsl nri) Fun.id)
      in
      faithful
      || List.for_all
           (fun (_, attack) ->
             match Budget.recovered (attack lk (Oracle.scan_chip chip)) with
             | Some key -> not (unlocks lk key)
             | None -> true)
           attacks)

(* P: an [Approximate] outcome's estimated error is a fraction, for every
   attack in the table; a noisy oracle and the SAT attack's audit make the
   SAT family settle for approximations too *)
let prop_approximate_error_is_a_fraction =
  Prop.to_alcotest ~count:8
    ~name:"approximate estimated error lies in [0,1]"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:6 in
      List.for_all
        (fun (a : Key_recovery.t) ->
          let oracle = Faulty.bit_flip ~seed ~p:0.05 (Oracle.functional lk) in
          let r = a.run ~budget:Budget.default ~validate:16 lk oracle in
          match r.outcome with
          | Budget.Approximate (_, err) -> 0.0 <= err && err <= 1.0
          | _ -> true)
        Key_recovery.all)

let suite =
  ( "prop_attacks",
    [
      prop_sat_attack_exact_key_is_equivalent;
      prop_double_dip_defeats_sarlock;
      prop_sat_attack_validation_is_clean;
      prop_miter_matches_simulation;
      prop_add_io_keeps_agreeing_keys;
      prop_equivalent_keys_matches_equiv;
      prop_appsat_ddip_exact_key_is_equivalent;
      prop_appsat_ddip_fail_behind_orap;
      prop_approximate_error_is_a_fraction;
    ] )
