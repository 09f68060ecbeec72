(** Design-space exploration for the OraP + weighted-locking stack:

    - control-gate width w vs output corruption and key-gate count (the
      paper picks w=3 for most circuits, w=5 for the largest two);
    - key-sequence length vs the XOR-tree payload a scenario-(d) Trojan
      must embed (the reason the key register is an LFSR and not a plain
      shift register, Section III-d). *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Lfsr = Orap_lfsr.Lfsr
module Symbolic = Orap_lfsr.Symbolic
module Prng = Orap_sim.Prng
module E = Orap_experiments

let () =
  let nl =
    Benchgen.generate
      { Benchgen.seed = 3; num_inputs = 96; num_outputs = 64; num_gates = 1500 }
  in
  let rng = Prng.create 8 in
  let key_size = 60 in
  let t1 =
    E.Report.create ~title:"Control-gate width vs corruption (key = 60 bits)"
      ~header:[ "w"; "Key gates"; "Actuation prob"; "HD random key (%)" ]
      ~aligns:[ E.Report.R; E.Report.R; E.Report.R; E.Report.R ]
  in
  List.iter
    (fun w ->
      let locked = Weighted.lock nl ~key_size ~ctrl_inputs:w in
      let hd_sum = ref 0.0 in
      let keys = 4 in
      for _ = 1 to keys do
        hd_sum :=
          !hd_sum
          +. Locked.hamming_vs_original locked (Prng.bool_array rng key_size)
      done;
      E.Report.add_row t1
        [ E.Report.d w;
          E.Report.d (Weighted.num_key_gates ~key_size ~ctrl_inputs:w);
          Printf.sprintf "%.3f" (1.0 -. (1.0 /. float_of_int (1 lsl w)));
          E.Report.f1 (!hd_sum /. float_of_int keys) ])
    [ 1; 2; 3; 5; 6 ];
  E.Report.print t1;

  (* LFSR vs shift register: seed mixing and the XOR-tree payload *)
  let t2 =
    E.Report.create
      ~title:"Scenario-(d) XOR-tree payload: LFSR vs plain shift register"
      ~header:
        [ "Seeds"; "Free-run"; "LFSR mean terms"; "LFSR XOR gates";
          "Shift-reg XOR gates" ]
      ~aligns:[ E.Report.R; E.Report.R; E.Report.R; E.Report.R; E.Report.R ]
  in
  let size = 64 in
  List.iter
    (fun (num_seeds, fr) ->
      (* each seed is followed by [fr] free-run cycles *)
      let seed = true :: List.init fr (fun _ -> false) in
      let injects = List.concat (List.init num_seeds (fun _ -> seed)) in
      let exprs, _ = Symbolic.unroll (Lfsr.create ~size ()) injects in
      (* a shift register = no feedback taps *)
      let plain =
        Lfsr.create ~taps:(Array.make size false) ~size ()
      in
      let exprs_plain, _ = Symbolic.unroll plain injects in
      E.Report.add_row t2
        [ E.Report.d num_seeds; E.Report.d fr;
          E.Report.f1 (Symbolic.mean_terms exprs);
          E.Report.d (Symbolic.xor_tree_gates exprs);
          E.Report.d (Symbolic.xor_tree_gates exprs_plain) ])
    [ (2, 0); (2, 8); (4, 8); (8, 16); (8, 64) ];
  E.Report.print t2;
  print_endline
    "\nThe LFSR's feedback mixes every seed into long linear expressions;\n\
     a plain shift register leaves each cell a single seed bit, making the\n\
     XOR-tree Trojan almost free. This is Section III-d's design argument."
