open Util
module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen

(* the forced-value reference simulation lives in Util.eval_with_fault *)

let test_collapsed_list_structure () =
  let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:40 3 in
  let faults = Fault.collapsed_list nl in
  check Alcotest.bool "non-empty" true (Array.length faults > 0);
  check Alcotest.bool "fewer than uncollapsed" true
    (Array.length faults < Fault.total_uncollapsed nl);
  (* no duplicates *)
  let sorted = Array.copy faults in
  Array.sort Fault.compare sorted;
  let dups = ref 0 in
  for i = 1 to Array.length sorted - 1 do
    if Fault.compare sorted.(i) sorted.(i - 1) = 0 then incr dups
  done;
  check Alcotest.int "no duplicates" 0 !dups

let test_collapsing_rules () =
  (* AND gate fed by two fanout stems: branch s-a-0 is collapsed away,
     branch s-a-1 kept *)
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let c = N.Builder.add_input b in
  let g1 = N.Builder.add_node b Gate.And [| a; c |] in
  let g2 = N.Builder.add_node b Gate.Or [| a; c |] in
  N.Builder.mark_output b g1;
  N.Builder.mark_output b g2;
  let nl = N.Builder.finish b in
  let faults = Array.to_list (Fault.collapsed_list nl) in
  let has site stuck = List.mem { Fault.site; stuck } faults in
  check Alcotest.bool "AND branch sa1 kept" true (has (Fault.Input (2, 0)) true);
  check Alcotest.bool "AND branch sa0 collapsed" false (has (Fault.Input (2, 0)) false);
  check Alcotest.bool "OR branch sa0 kept" true (has (Fault.Input (3, 0)) false);
  check Alcotest.bool "OR branch sa1 collapsed" false (has (Fault.Input (3, 0)) true)

let test_single_fanout_branches_collapsed () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let c = N.Builder.add_input b in
  let g = N.Builder.add_node b Gate.Xor [| a; c |] in
  N.Builder.mark_output b g;
  let nl = N.Builder.finish b in
  let faults = Array.to_list (Fault.collapsed_list nl) in
  let branch = List.filter (fun f -> match f.Fault.site with Fault.Input _ -> true | Fault.Output _ -> false) faults in
  check Alcotest.int "no branch faults on single fanout" 0 (List.length branch)

let prop_detect_word_matches_reference =
  Prop.to_alcotest ~count:40 ~name:"parallel fault sim agrees with reference"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:35 seed in
      let faults = Fault.collapsed_list nl in
      let t = Fsim.create nl in
      let rng = Prng.create (seed + 13) in
      let ni = N.num_inputs nl in
      let words = Array.init ni (fun _ -> Prng.next64 rng) in
      let ok = ref true in
      (* probe a subset of faults against a subset of the 64 patterns *)
      Array.iteri
        (fun fi fault ->
          if fi mod 3 = 0 then begin
            let mask = Fsim.detect_word t words fault in
            for bit = 0 to 7 do
              let inp = lane_of words bit in
              let faulty = eval_with_fault nl fault inp in
              let good_b = Sim.eval_bools nl inp in
              let expected = faulty <> good_b in
              let got = Int64.logand (Int64.shift_right_logical mask bit) 1L <> 0L in
              if expected <> got then ok := false
            done
          end)
        faults;
      !ok)

let test_random_simulate_drops () =
  let nl = random_netlist ~inputs:10 ~outputs:8 ~gates:120 21 in
  let faults = Fault.collapsed_list nl in
  let remaining = Array.make (Array.length faults) true in
  let stats = Fsim.random_simulate ~words:8 nl faults remaining in
  let undetected = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 remaining in
  check Alcotest.int "bookkeeping" (Array.length faults)
    (stats.Fsim.detected + undetected);
  check Alcotest.bool "most faults detected by random patterns" true
    (stats.Fsim.detected * 10 > Array.length faults * 7)

let test_simulate_pattern_consistency () =
  let nl = random_netlist ~inputs:8 ~outputs:6 ~gates:60 31 in
  let faults = Fault.collapsed_list nl in
  let t = Fsim.create nl in
  let remaining = Array.make (Array.length faults) true in
  let pattern = Array.make 8 true in
  let dropped = Fsim.simulate_pattern t pattern faults remaining in
  let undetected = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 remaining in
  check Alcotest.int "drop accounting" (Array.length faults) (dropped + undetected);
  (* second run of the same pattern drops nothing new *)
  check Alcotest.int "idempotent" 0 (Fsim.simulate_pattern t pattern faults remaining)

let test_width_checked () =
  let nl = random_netlist ~inputs:8 ~outputs:6 ~gates:60 31 in
  let faults = Fault.collapsed_list nl in
  let t = Fsim.create nl in
  let remaining = Array.make (Array.length faults) true in
  List.iter
    (fun width ->
      Alcotest.check_raises "detect_word width"
        (Invalid_argument "Sim.eval: one word per primary input required")
        (fun () -> ignore (Fsim.detect_word t (Array.make width 0L) faults.(0)));
      Alcotest.check_raises "simulate_pattern width"
        (Invalid_argument "Fsim.simulate_pattern: one value per primary input required")
        (fun () ->
          ignore (Fsim.simulate_pattern t (Array.make width true) faults remaining)))
    [ 7; 9; N.num_nodes nl + 1 ];
  check Alcotest.bool "nothing dropped" true (Array.for_all Fun.id remaining)

(* faulty words are written over the good ones in place; after every
   propagation the store holds the good words again, so propagations that
   share one good pass see the same values as fresh ones *)
let test_store_restored () =
  let nl = random_netlist ~inputs:8 ~outputs:6 ~gates:60 37 in
  let rng = Prng.create 5 in
  let words = Array.init 8 (fun _ -> Prng.next64 rng) in
  let fresh node =
    let t = Fsim.create nl in
    Sim.eval nl t.Fsim.store words;
    Fsim.invert_impact t node
  in
  let t = Fsim.create nl in
  Sim.eval nl t.Fsim.store words;
  for n = 0 to N.num_nodes nl - 1 do
    check Alcotest.int "impact on a shared good pass" (fresh n) (Fsim.invert_impact t n)
  done;
  let good = Sim.store nl in
  Sim.eval nl good words;
  for n = 0 to N.num_nodes nl - 1 do
    check Alcotest.int64 "good word restored" (Sim.word good n) (Sim.word t.Fsim.store n)
  done

let suite =
  ( "faultsim",
    [
      tc "collapsed list structure" `Quick test_collapsed_list_structure;
      tc "gate-type collapsing rules" `Quick test_collapsing_rules;
      tc "single-fanout branch collapsing" `Quick test_single_fanout_branches_collapsed;
      prop_detect_word_matches_reference;
      tc "random simulate with dropping" `Quick test_random_simulate_drops;
      tc "simulate_pattern accounting" `Quick test_simulate_pattern_consistency;
      tc "input width checked" `Quick test_width_checked;
      tc "good words restored" `Quick test_store_restored;
    ] )
