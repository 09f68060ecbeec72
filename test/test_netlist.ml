open Util
module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Bench_format = Orap_netlist.Bench_format
module Dot = Orap_netlist.Dot
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen

(* the tiny reference circuit lives in Util.full_adder *)
let test_full_adder_truth () =
  let nl = full_adder () in
  for m = 0 to 7 do
    let a = m land 1 = 1 and b = (m lsr 1) land 1 = 1 and c = (m lsr 2) land 1 = 1 in
    let outs = Orap_sim.Sim.eval_bools nl [| a; b; c |] in
    let total = (if a then 1 else 0) + (if b then 1 else 0) + if c then 1 else 0 in
    check Alcotest.bool "sum" (total land 1 = 1) outs.(0);
    check Alcotest.bool "cout" (total >= 2) outs.(1)
  done

let test_counts () =
  let nl = full_adder () in
  check Alcotest.int "nodes" 8 (N.num_nodes nl);
  check Alcotest.int "inputs" 3 (N.num_inputs nl);
  check Alcotest.int "outputs" 2 (N.num_outputs nl);
  check Alcotest.int "gates" 5 (N.gate_count nl);
  check Alcotest.int "depth" 3 (N.depth nl)

let test_gate_count_excludes_inverters () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let n1 = N.Builder.add_node b Gate.Not [| a |] in
  let n2 = N.Builder.add_node b Gate.Buf [| n1 |] in
  let n3 = N.Builder.add_node b Gate.And [| n2; a |] in
  N.Builder.mark_output b n3;
  let nl = N.Builder.finish b in
  check Alcotest.int "gates w/o inverters" 1 (N.gate_count nl);
  check Alcotest.int "all logic nodes" 3 (N.node_count nl);
  (* inverters are depth-transparent *)
  check Alcotest.int "depth" 1 (N.depth nl)

let test_builder_rejects_forward_refs () =
  let b = N.Builder.create () in
  let _ = N.Builder.add_input b in
  Alcotest.check_raises "forward fanin" (N.Invalid "fanin 5 out of range (next id 1): not topological")
    (fun () -> ignore (N.Builder.add_node b Gate.And [| 5; 0 |]))

let test_builder_rejects_bad_arity () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  Alcotest.check_raises "NOT with 2 fanins" (N.Invalid "gate NOT cannot take 2 fanins")
    (fun () -> ignore (N.Builder.add_node b Gate.Not [| a; a |]))

let test_duplicate_names_rejected () =
  let b = N.Builder.create () in
  let _ = N.Builder.add_input ~name:"x" b in
  Alcotest.check_raises "dup name" (N.Invalid "duplicate node name \"x\"")
    (fun () -> ignore (N.Builder.add_input ~name:"x" b))

let test_fanouts () =
  let nl = full_adder () in
  let fo = N.fanouts nl in
  (* node 0 = input a feeds s1 (3) and c1 (5) *)
  check Alcotest.(list int) "fanouts of a" [ 3; 5 ] (Array.to_list fo.(0));
  (* sum (4) feeds nothing *)
  check Alcotest.int "sum fanout" 0 (Array.length fo.(4))

let test_levels_and_slacks () =
  let nl = full_adder () in
  let lev = N.levels nl in
  check Alcotest.int "lev s1" 1 lev.(3);
  check Alcotest.int "lev sum" 2 lev.(4);
  check Alcotest.int "lev cout" 3 lev.(7);
  let s = N.slacks nl in
  check Alcotest.int "cout critical" 0 s.(7);
  let crit = N.critical_nodes nl in
  check Alcotest.bool "cout on critical path" true crit.(7)

let test_fanin_cone () =
  let nl = full_adder () in
  let cone = N.fanin_cone nl [ 4 ] (* sum *) in
  check Alcotest.bool "includes cin" true cone.(2);
  check Alcotest.bool "excludes c1" false cone.(5)

let test_copy_into_preserves_function () =
  let nl = full_adder () in
  let b = N.Builder.create () in
  let map = Array.make (N.num_nodes nl) (-1) in
  let map = N.copy_into b nl map in
  Array.iter (fun o -> N.Builder.mark_output b map.(o)) (N.outputs nl);
  let copy = N.Builder.finish b in
  check Alcotest.bool "equivalent" true (equivalent_on_random nl copy)

let test_validate_ok () =
  let nl = full_adder () in
  N.validate nl

(* --- bench format --- *)

let test_bench_roundtrip () =
  let nl = full_adder () in
  let text = Bench_format.print nl in
  let src = Bench_format.parse text in
  check Alcotest.bool "roundtrip equivalent" true
    (equivalent_on_random nl src.Bench_format.netlist)

(* golden round-trip on the real ISCAS s27: the runner's journals reference
   .bench inputs by path + content hash, so parser/printer drift would
   silently invalidate every journaled cell *)
let test_s27_golden_roundtrip () =
  let path = "../../../data/s27.bench" in
  let src = Bench_format.parse_file path in
  let nl = src.Bench_format.netlist in
  let printed = Bench_format.print nl in
  let reparsed = (Bench_format.parse printed).Bench_format.netlist in
  check Alcotest.bool "print/parse is structurally the identity" true
    (netlists_structurally_equal nl reparsed);
  (* 7 combinational inputs: exhaustive functional equality *)
  let n_in = N.num_inputs nl in
  let ok = ref true in
  for m = 0 to (1 lsl n_in) - 1 do
    let inp = Array.init n_in (fun i -> (m lsr i) land 1 = 1) in
    if Sim.eval_bools nl inp <> Sim.eval_bools reparsed inp then ok := false
  done;
  check Alcotest.bool "exhaustive functional equality" true !ok;
  (* and a second print is byte-identical (printing is deterministic) *)
  check Alcotest.string "printing is stable" printed
    (Bench_format.print reparsed)

let test_bench_parse_sequential () =
  let text =
    "INPUT(x)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(x, q)\ny = AND(x, q)\n"
  in
  let src = Bench_format.parse text in
  let nl = src.Bench_format.netlist in
  (* x + pseudo-input q, y + pseudo-output d *)
  check Alcotest.int "inputs" 2 (N.num_inputs nl);
  check Alcotest.int "outputs" 2 (N.num_outputs nl);
  check Alcotest.(list (pair string string)) "flip flops" [ ("q", "d") ]
    src.Bench_format.flip_flops

let test_bench_parse_comments_and_case () =
  let text = "# header\nINPUT(a)\nINPUT(b)\nOUTPUT(o)\no = nand(a, b) # gate\n" in
  let src = Bench_format.parse text in
  let outs = Orap_sim.Sim.eval_bools src.Bench_format.netlist [| true; true |] in
  check Alcotest.bool "nand(1,1)" false outs.(0)

let test_bench_parse_errors () =
  let bad = "INPUT(a)\nOUTPUT(o)\no = FROB(a)\n" in
  (match Bench_format.parse bad with
  | exception Bench_format.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected parse error");
  let undefined = "INPUT(a)\nOUTPUT(o)\no = AND(a, ghost)\n" in
  match Bench_format.parse undefined with
  | exception Bench_format.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected undefined-signal error"

let test_bench_cycle_detected () =
  let cyc = "INPUT(a)\nOUTPUT(o)\no = AND(a, p)\np = AND(a, o)\n" in
  match Bench_format.parse cyc with
  | exception Bench_format.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected cycle error"

let test_dot_output () =
  let nl = full_adder () in
  let dot = Dot.of_netlist nl in
  check Alcotest.bool "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph")

(* --- gate semantics --- *)

(* one gate over one input per operand, simulated through [Sim] *)
let test_gate_eval_word () =
  let open Gate in
  let eval_word kind operands =
    let b = N.Builder.create () in
    let g = N.Builder.add_node b kind (Array.map (fun _ -> N.Builder.add_input b) operands) in
    N.Builder.mark_output b g;
    let nl = N.Builder.finish b in
    let s = Sim.store nl in
    Sim.eval nl s operands;
    Sim.word s g
  in
  let t = Int64.minus_one and f = 0L in
  check Alcotest.bool "and" true (eval_word And [| t; t |] = t);
  check Alcotest.bool "and0" true (eval_word And [| t; f |] = f);
  check Alcotest.bool "nand" true (eval_word Nand [| t; t |] = f);
  check Alcotest.bool "or" true (eval_word Or [| f; f |] = f);
  check Alcotest.bool "nor" true (eval_word Nor [| f; f |] = t);
  check Alcotest.bool "xor" true (eval_word Xor [| t; t; t |] = t);
  check Alcotest.bool "xnor" true (eval_word Xnor [| t; f |] = f);
  check Alcotest.bool "mux sel0" true (eval_word Mux [| f; t; f |] = t);
  check Alcotest.bool "mux sel1" true (eval_word Mux [| t; t; f |] = f);
  check Alcotest.bool "const" true (eval_word Const1 [||] = t);
  (* lanes are independent: lane b of each operand is pattern b *)
  let a = 0xAAAAAAAAAAAAAAAAL and c = 0xCCCCCCCCCCCCCCCCL and e = 0xF0F0F0F0F0F0F0F0L in
  check Alcotest.int64 "and lanes" 0x8888888888888888L (eval_word And [| a; c |]);
  check Alcotest.int64 "nor lanes" 0x1111111111111111L (eval_word Nor [| a; c |]);
  check Alcotest.int64 "xor lanes" 0x9696969696969696L (eval_word Xor [| a; c; e |]);
  check Alcotest.int64 "mux lanes" 0xE4E4E4E4E4E4E4E4L (eval_word Mux [| a; c; e |])

let test_gate_string_roundtrip () =
  List.iter
    (fun k ->
      match Gate.of_string (Gate.to_string k) with
      | Some k' -> check Alcotest.bool (Gate.to_string k) true (k = k')
      | None -> Alcotest.fail "of_string failed")
    [ Gate.Input; Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor;
      Gate.Xor; Gate.Xnor; Gate.Mux ]

(* --- properties --- *)

let prop_generated_valid =
  Prop.to_alcotest ~count:50 ~name:"generated netlists validate"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist seed in
      N.validate nl;
      true)

let prop_roundtrip =
  Prop.to_alcotest ~count:20 ~name:"bench print/parse preserves function"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:40 seed in
      let src = Bench_format.parse (Bench_format.print nl) in
      equivalent_on_random ~n:64 nl src.Bench_format.netlist)

let prop_levels_bound_depth =
  Prop.to_alcotest ~count:50 ~name:"levels bound the depth"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist seed in
      let lev = N.levels nl in
      let m = Array.fold_left max 0 lev in
      N.depth nl <= m)

let prop_slack_nonneg =
  Prop.to_alcotest ~count:50 ~name:"slacks of reachable nodes are non-negative"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist seed in
      let s = N.slacks nl in
      Array.for_all (fun x -> x >= 0) s)

let suite =
  ( "netlist",
    [
      tc "full adder truth table" `Quick test_full_adder_truth;
      tc "node/gate counts" `Quick test_counts;
      tc "gate count excludes inverters" `Quick test_gate_count_excludes_inverters;
      tc "builder rejects forward refs" `Quick test_builder_rejects_forward_refs;
      tc "builder rejects bad arity" `Quick test_builder_rejects_bad_arity;
      tc "duplicate names rejected" `Quick test_duplicate_names_rejected;
      tc "fanouts" `Quick test_fanouts;
      tc "levels and slacks" `Quick test_levels_and_slacks;
      tc "fanin cone" `Quick test_fanin_cone;
      tc "copy_into preserves function" `Quick test_copy_into_preserves_function;
      tc "validate accepts well-formed" `Quick test_validate_ok;
      tc "bench roundtrip" `Quick test_bench_roundtrip;
      tc "s27 golden roundtrip" `Quick test_s27_golden_roundtrip;
      tc "bench sequential extraction" `Quick test_bench_parse_sequential;
      tc "bench comments and case" `Quick test_bench_parse_comments_and_case;
      tc "bench parse errors" `Quick test_bench_parse_errors;
      tc "bench combinational cycle" `Quick test_bench_cycle_detected;
      tc "dot export" `Quick test_dot_output;
      tc "gate word evaluation" `Quick test_gate_eval_word;
      tc "gate name roundtrip" `Quick test_gate_string_roundtrip;
      prop_generated_valid;
      prop_roundtrip;
      prop_levels_bound_depth;
      prop_slack_nonneg;
    ] )
