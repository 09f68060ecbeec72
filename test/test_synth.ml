open Util
module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Aig = Orap_synth.Aig
module Truth = Orap_synth.Truth
module Isop = Orap_synth.Isop
module Refactor = Orap_synth.Refactor
module Balance = Orap_synth.Balance
module Abc = Orap_synth.Abc_script
module Prng = Orap_sim.Prng

(* --- truth tables --- *)

let test_truth_var () =
  let v0 = Truth.var 3 0 in
  check Alcotest.bool "pattern 1 has x0" true (Truth.get v0 1);
  check Alcotest.bool "pattern 2 lacks x0" false (Truth.get v0 2);
  let v2 = Truth.var 3 2 in
  check Alcotest.bool "pattern 4 has x2" true (Truth.get v2 4);
  check Alcotest.int "var popcount" 4 (Truth.popcount v2)

let test_truth_var_wide () =
  (* variable index >= 6 exercises the word-level path *)
  let v7 = Truth.var 8 7 in
  check Alcotest.int "half the minterms" 128 (Truth.popcount v7);
  check Alcotest.bool "pattern 128" true (Truth.get v7 128);
  check Alcotest.bool "pattern 127" false (Truth.get v7 127)

let test_truth_ops () =
  let a = Truth.var 4 0 and b = Truth.var 4 1 in
  let f = Truth.logand a b in
  check Alcotest.int "and popcount" 4 (Truth.popcount f);
  let g = Truth.logor a b in
  check Alcotest.int "or popcount" 12 (Truth.popcount g);
  let h = Truth.logxor a b in
  check Alcotest.int "xor popcount" 8 (Truth.popcount h);
  check Alcotest.bool "not not = id" true
    (Truth.equal a (Truth.lognot (Truth.lognot a)));
  check Alcotest.bool "zero" true (Truth.is_zero (Truth.zero 4));
  check Alcotest.bool "ones" true (Truth.is_ones (Truth.ones 4))

let test_truth_cofactors () =
  let a = Truth.var 4 0 and b = Truth.var 4 1 in
  let f = Truth.logand a b in
  (* f|x0=1 = b, f|x0=0 = 0 *)
  check Alcotest.bool "pos cofactor" true (Truth.equal (Truth.cofactor1 f 0) b);
  check Alcotest.bool "neg cofactor" true (Truth.is_zero (Truth.cofactor0 f 0));
  check Alcotest.bool "depends" true (Truth.depends_on f 0);
  check Alcotest.bool "independent" false (Truth.depends_on f 3)

let test_truth_cofactors_wide () =
  let f = Truth.logand (Truth.var 8 7) (Truth.var 8 2) in
  check Alcotest.bool "pos cofactor wide" true
    (Truth.equal (Truth.cofactor1 f 7) (Truth.var 8 2));
  check Alcotest.bool "neg cofactor wide" true (Truth.is_zero (Truth.cofactor0 f 7))

(* random truth table over [nvars] *)
let random_truth rng nvars =
  let t = Truth.zero nvars in
  let words = t.Truth.words in
  for i = 0 to Array.length words - 1 do
    words.(i) <- Prng.next64 rng
  done;
  (* mask the partial last word (nvars < 6) *)
  Truth.logand t (Truth.ones nvars)

let prop_isop_covers_function =
  Prop.to_alcotest ~count:60 ~name:"ISOP cover equals the function"
    ~gen:(Gen.pair (Gen.int_range 0 10_000) (Gen.int_range 1 8))
    ~print:(fun (seed, nvars) -> Printf.sprintf "(%d, %d)" seed nvars)
    (fun (seed, nvars) ->
      let rng = Prng.create seed in
      let f = random_truth rng nvars in
      let cubes = Isop.compute f in
      Truth.equal (Isop_ref.cover_truth nvars cubes) f)

let test_isop_constants () =
  check Alcotest.int "zero -> no cubes" 0 (List.length (Isop.compute (Truth.zero 4)));
  let ones = Isop.compute (Truth.ones 4) in
  check Alcotest.int "ones -> one cube" 1 (List.length ones);
  check Alcotest.int "empty cube" 0 (Isop.cube_literals (List.hd ones))

let test_isop_cost () =
  (* f = x0 x1 + x2: 1 AND + 1 OR = 2 nodes *)
  let f =
    Truth.logor (Truth.logand (Truth.var 3 0) (Truth.var 3 1)) (Truth.var 3 2)
  in
  let cubes = Isop.compute f in
  check Alcotest.int "two cubes" 2 (List.length cubes);
  check Alcotest.int "cost" 2 (Isop.cost cubes)

(* --- AIG --- *)

let test_aig_strash_rules () =
  let g = Aig.create ~num_pis:2 in
  let a = Aig.pi_lit g 0 and b = Aig.pi_lit g 1 in
  check Alcotest.int "a & 1 = a" a (Aig.and_lit g a Aig.true_lit);
  check Alcotest.int "a & 0 = 0" Aig.false_lit (Aig.and_lit g a Aig.false_lit);
  check Alcotest.int "a & a = a" a (Aig.and_lit g a a);
  check Alcotest.int "a & ~a = 0" Aig.false_lit (Aig.and_lit g a (Aig.compl_lit a));
  let ab1 = Aig.and_lit g a b and ab2 = Aig.and_lit g b a in
  check Alcotest.int "hash-consing" ab1 ab2;
  check Alcotest.int "one and node" 1 (Aig.num_ands g)

(* a strash key packs two literals of 31 bits, so a graph whose inputs
   alone pass 2^30 nodes is refused before anything is allocated *)
let test_aig_node_limit () =
  List.iter
    (fun num_pis ->
      match Aig.create ~num_pis with
      | _ -> Alcotest.failf "num_pis %d accepted" num_pis
      | exception Invalid_argument _ -> ())
    [ -1; 1 lsl 30 ]

let eval_aig g inputs =
  let n = Aig.num_nodes g in
  let v = Array.make n false in
  for id = Aig.num_pis g + 1 to n - 1 do
    let lit_val l =
      let x = v.(Aig.node_of_lit l) in
      if Aig.is_compl l then not x else x
    in
    v.(id) <- lit_val (Aig.fanin0 g id) && lit_val (Aig.fanin1 g id)
  done;
  for i = 0 to Aig.num_pis g - 1 do
    v.(i + 1) <- inputs.(i)
  done;
  (* re-sweep now that PIs are set *)
  for id = Aig.num_pis g + 1 to n - 1 do
    let lit_val l =
      let x = v.(Aig.node_of_lit l) in
      if Aig.is_compl l then not x else x
    in
    v.(id) <- lit_val (Aig.fanin0 g id) && lit_val (Aig.fanin1 g id)
  done;
  Array.map
    (fun o ->
      let x = v.(Aig.node_of_lit o) in
      if Aig.is_compl o then not x else x)
    (Aig.outputs g)

let prop_aig_roundtrip =
  Prop.to_alcotest ~count:30 ~name:"netlist -> AIG -> netlist preserves function"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:7 ~outputs:4 ~gates:50 seed in
      let back = Aig.to_netlist (Aig.of_netlist nl) in
      equivalent_on_random ~n:64 nl back)

let prop_aig_matches_simulation =
  Prop.to_alcotest ~count:30 ~name:"AIG evaluation matches netlist simulation"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:40 seed in
      let g = Aig.of_netlist nl in
      let rng = Prng.create (seed + 5) in
      let ok = ref true in
      for _ = 1 to 32 do
        let inp = Prng.bool_array rng 6 in
        if eval_aig g inp <> Orap_sim.Sim.eval_bools nl inp then ok := false
      done;
      !ok)

let prop_refactor_preserves_function =
  Prop.to_alcotest ~count:25 ~name:"refactor preserves function"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:7 ~outputs:4 ~gates:60 seed in
      let g = Refactor.run ~cut_size:8 (Aig.of_netlist nl) in
      equivalent_on_random ~n:64 nl (Aig.to_netlist g))

let prop_balance_preserves_function =
  Prop.to_alcotest ~count:25 ~name:"balance preserves function"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:7 ~outputs:4 ~gates:60 seed in
      let g = Balance.run (Aig.of_netlist nl) in
      equivalent_on_random ~n:64 nl (Aig.to_netlist g))

let prop_pipeline_preserves_function =
  Prop.to_alcotest ~count:15 ~name:"full abc pipeline preserves function"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:8 ~outputs:5 ~gates:80 seed in
      let g = Abc.optimize nl in
      equivalent_on_random ~n:64 nl (Aig.to_netlist g))

let test_balance_reduces_chain_depth () =
  (* a linear AND chain of 8 inputs balances to depth 3 *)
  let nl = chain_circuit ~kind:Gate.And 8 in
  let g0 = Aig.of_netlist nl in
  check Alcotest.int "chain depth" 7 (Aig.depth g0);
  let g = Balance.run g0 in
  check Alcotest.int "balanced depth" 3 (Aig.depth g);
  check Alcotest.bool "still equivalent" true
    (equivalent_on_random nl (Aig.to_netlist g))

let test_refactor_compresses_redundancy () =
  (* (a & b) | (a & b) | (a & b) ... duplicated logic strashes/refactors *)
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let c = N.Builder.add_input b in
  let t1 = N.Builder.add_node b Gate.And [| a; c |] in
  let t2 = N.Builder.add_node b Gate.And [| a; c |] in
  let o = N.Builder.add_node b Gate.Or [| t1; t2 |] in
  N.Builder.mark_output b o;
  let nl = N.Builder.finish b in
  let g = Aig.of_netlist nl in
  (* strash alone dedups the two ANDs: x | x = x leaves one AND *)
  check Alcotest.int "strash dedup" 1 (Aig.num_live_ands g)

let test_overhead_zero_for_identical () =
  let nl = random_netlist ~inputs:8 ~outputs:5 ~gates:60 91 in
  let m = Abc.evaluate nl in
  let o = Abc.overhead ~original:m ~protected_:m ~extra_ands:0 in
  check (Alcotest.float 1e-9) "area" 0.0 o.Abc.area_pct;
  check (Alcotest.float 1e-9) "delay" 0.0 o.Abc.delay_pct

(* Refactor's scratch belongs to one [Refactor.run] call, so two domains
   optimising different netlists at the same time get the serial results *)
let test_evaluate_on_two_domains () =
  let netlist seed =
    Orap_benchgen.Benchgen.generate
      { Orap_benchgen.Benchgen.seed; num_inputs = 40; num_outputs = 20;
        num_gates = 1500 }
  in
  let nls = [| netlist 3; netlist 4 |] in
  let serial = Array.map (fun nl -> Abc.evaluate nl) nls in
  let domains =
    Array.map
      (fun nl -> Domain.spawn (fun () -> List.init 3 (fun _ -> Abc.evaluate nl)))
      nls
  in
  Array.iteri
    (fun i d ->
      List.iter
        (fun (m : Abc.metrics) ->
          check Alcotest.(pair int int)
            (Printf.sprintf "netlist %d: ands, levels" i)
            (serial.(i).Abc.ands, serial.(i).Abc.levels)
            (m.ands, m.levels))
        (Domain.join d))
    domains

(* Every Table I netlist at scale 64, original and locked: the passes give
   the reference's graphs node for node, and refactoring costs the same
   cones *)
let test_table1_netlists_match_reference () =
  List.iter
    (fun profile ->
      let _, nl, locked = Orap_experiments.Table1.circuit ~scale:64 profile in
      List.iter
        (fun (side, nl) ->
          let name what =
            Printf.sprintf "%s %s: %s" profile.Orap_benchgen.Benchgen.name side what
          in
          let r = Synth_ref.of_netlist nl and g = Aig.of_netlist nl in
          check Alcotest.bool (name "strash") true (Synth_ref.same r g);
          check Alcotest.bool (name "costed cones") true
            (Refactor.costed_cones ~cut_size:10 ~min_cone:3 g
            = Synth_ref.costed_cones ~cut_size:10 ~min_cone:3 r);
          check Alcotest.bool (name "optimize") true
            (Synth_ref.same (Synth_ref.optimize nl) (Abc.optimize nl)))
        [ ("original", nl); ("locked", locked.Orap_locking.Locked.netlist) ])
    Orap_benchgen.Benchgen.table1_profiles

let suite =
  ( "synth",
    [
      tc "truth var" `Quick test_truth_var;
      tc "truth var wide" `Quick test_truth_var_wide;
      tc "truth boolean ops" `Quick test_truth_ops;
      tc "truth cofactors" `Quick test_truth_cofactors;
      tc "truth cofactors wide" `Quick test_truth_cofactors_wide;
      prop_isop_covers_function;
      tc "isop constants" `Quick test_isop_constants;
      tc "isop cost" `Quick test_isop_cost;
      tc "aig strash rules" `Quick test_aig_strash_rules;
      tc "aig node limit" `Quick test_aig_node_limit;
      prop_aig_roundtrip;
      prop_aig_matches_simulation;
      prop_refactor_preserves_function;
      prop_balance_preserves_function;
      prop_pipeline_preserves_function;
      tc "balance reduces chain depth" `Quick test_balance_reduces_chain_depth;
      tc "strash dedups redundancy" `Quick test_refactor_compresses_redundancy;
      tc "overhead of identical circuit is 0" `Quick test_overhead_zero_for_identical;
      tc "evaluate on two domains = serial" `Quick test_evaluate_on_two_domains;
      tc "Table I netlists = reference" `Quick test_table1_netlists_match_reference;
    ] )
