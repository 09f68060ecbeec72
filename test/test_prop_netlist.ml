(** Cross-layer properties: netlist IR, exporters, bit-parallel simulation.

    All equivalence claims are decided by [Orap_proptest.Equiv] (SAT miter
    or exhaustive simulation), and failures shrink to minimal [.bench]
    counterexamples via [Shrink]. *)

open Util
module Bench_format = Orap_netlist.Bench_format
module Verilog = Orap_netlist.Verilog
module Equiv = Orap_proptest.Equiv

(* P: every generated DAG (full vocabulary: Mux, Buf/Not, constants) is
   structurally valid and its levels bound its depth *)
let prop_generated_valid =
  Prop.netlist ~count:60 "generated netlists validate" (fun nl ->
      N.validate nl;
      let lev = N.levels nl in
      N.depth nl <= Array.fold_left max 0 lev)

(* P: .bench print/parse round-trip preserves the function (miter-checked;
   constants are re-encoded as XOR/XNOR of an input by the printer, so this
   is a semantic, not structural, identity) *)
let prop_bench_roundtrip =
  Prop.netlist ~count:40 "bench print/parse round-trip is equivalent"
    (fun nl ->
      let back = (Bench_format.parse (Bench_format.print nl)).Bench_format.netlist in
      Equiv.check ~method_:`Sat nl back = Equiv.Equivalent)

(* P: a second print of the re-parsed netlist is byte-identical — the
   printer is deterministic modulo parsing *)
let prop_bench_print_stable =
  Prop.netlist ~count:20 "bench printing is stable under re-parse" (fun nl ->
      let printed = Bench_format.print nl in
      let back = (Bench_format.parse printed).Bench_format.netlist in
      Bench_format.print back = Bench_format.print
        ((Bench_format.parse (Bench_format.print back)).Bench_format.netlist))

(* P: copy_into is the identity on function *)
let prop_copy_into_equivalent =
  Prop.netlist ~count:40 "copy_into preserves the function" (fun nl ->
      let b = N.Builder.create () in
      let map = N.copy_into b nl (Array.make (N.num_nodes nl) (-1)) in
      Array.iter (fun o -> N.Builder.mark_output b map.(o)) (N.outputs nl);
      Equiv.equivalent nl (N.Builder.finish b))

(* P: every node's word from the 64-lane simulator agrees, lane by lane,
   with the scalar bool reference of [Util], which shares no code with it;
   the default parameters draw every gate kind, Mux, constants and wide
   gates included *)
let prop_word_sim_matches_reference =
  Prop.netlist_with_seed ~count:40 "word sim lanes agree with the scalar reference"
    (fun nl ~aux ->
      let rng = Prng.create aux in
      let words = Array.init (N.num_inputs nl) (fun _ -> Prng.next64 rng) in
      let s = Sim.store nl in
      Sim.eval nl s words;
      let ok = ref true in
      for lane = 0 to 63 do
        let reference = eval_nodes nl (lane_of words lane) in
        Array.iteri
          (fun n v ->
            let bit = Int64.logand (Int64.shift_right_logical (Sim.word s n) lane) 1L <> 0L in
            if bit <> v then ok := false)
          reference
      done;
      !ok)

(* P: the Verilog writer is total and deterministic on the full vocabulary
   (including constants and muxes, which take the assign path) *)
let prop_verilog_deterministic =
  Prop.netlist ~count:30 "verilog export is total and deterministic"
    (fun nl ->
      let v1 = Verilog.of_netlist nl in
      let v2 = Verilog.of_netlist nl in
      v1 = v2 && contains v1 "module top(" && contains v1 "endmodule"
      && contains v1 (Printf.sprintf "assign po%d = " (N.num_outputs nl - 1)))

(* P: the reader index is the transpose of the fanins ([Util.fanout_lists]:
   ascending, a reader once per fanin position), [is_output] marks exactly
   the outputs, and a second call returns the same index; over the full
   vocabulary and over wide gates that read one node at several positions
   and outputs that repeat *)
let prop_fanouts_transpose =
  let transpose nl =
    let fo = N.fanouts nl and n = N.num_nodes nl in
    let readers i = Array.sub fo.N.readers fo.N.start.(i) (fo.N.start.(i + 1) - fo.N.start.(i)) in
    fo.N.start.(0) = 0
    && fo.N.start.(n) = Array.length fo.N.readers
    && Array.init n readers = fanout_lists nl
    && fo.N.is_output = Array.init n (fun i -> Array.mem i (N.outputs nl))
    && N.fanouts nl == fo
  in
  Prop.to_alcotest ~count:60 ~name:"reader index is the transpose of the fanins"
    ~gen:(Gen.pair (Gen.netlist ()) Gen.wide_netlist)
    ~print:(fun (a, b) -> Bench_format.print a ^ "\n" ^ Bench_format.print b)
    (fun (a, b) -> transpose a && transpose b)

let suite =
  ( "prop_netlist",
    [
      prop_generated_valid;
      prop_bench_roundtrip;
      prop_bench_print_stable;
      prop_copy_into_equivalent;
      prop_word_sim_matches_reference;
      prop_verilog_deterministic;
      prop_fanouts_transpose;
    ] )
