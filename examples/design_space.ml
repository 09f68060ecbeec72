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
module Prng = Orap_sim.Prng
module E = Orap_experiments

let () =
  let nl =
    Benchgen.generate
      { Benchgen.seed = 3; num_inputs = 96; num_outputs = 64; num_gates = 1500 }
  in
  let rng = Prng.create 8 in
  let key_size = 60 in
  let widths =
    List.map
      (fun w ->
        let locked = Weighted.lock nl ~key_size ~ctrl_inputs:w in
        let hd_sum = ref 0.0 in
        let keys = 4 in
        for _ = 1 to keys do
          hd_sum :=
            !hd_sum
            +. Locked.hamming_vs_original locked (Prng.bool_array rng key_size)
        done;
        (w, !hd_sum /. float_of_int keys))
      [ 1; 2; 3; 5; 6 ]
  in
  E.Report.print
    (E.Report.table ~title:"Control-gate width vs corruption (key = 60 bits)"
       [ E.Report.col "w" (fun (w, _) -> E.Report.d w);
         E.Report.col "Key gates" (fun (w, _) ->
             E.Report.d (Weighted.num_key_gates ~key_size ~ctrl_inputs:w));
         E.Report.col "Actuation prob" (fun (w, _) ->
             Printf.sprintf "%.3f" (1.0 -. (1.0 /. float_of_int (1 lsl w))));
         E.Report.col "HD random key (%)" (fun (_, hd) -> E.Report.f1 hd) ]
       widths);

  (* LFSR vs shift register: seed mixing and the XOR-tree payload
     (ablation A3 at each key-sequence length; each seed is followed by
     [free_run] free-run cycles) *)
  let sequences =
    List.map
      (fun (num_seeds, free_run) ->
        match
          E.Ablation.key_register_structure ~size:64 ~num_seeds ~free_run ()
        with
        | [ lfsr; plain ] -> (num_seeds, free_run, lfsr, plain)
        | _ -> assert false)
      [ (2, 0); (2, 8); (4, 8); (8, 16); (8, 64) ]
  in
  E.Report.print
    (E.Report.table
       ~title:"Scenario-(d) XOR-tree payload: LFSR vs plain shift register"
       [ E.Report.col "Seeds" (fun (n, _, _, _) -> E.Report.d n);
         E.Report.col "Free-run" (fun (_, fr, _, _) -> E.Report.d fr);
         E.Report.col "LFSR mean terms" (fun (_, _, l, _) ->
             E.Report.f1 l.E.Ablation.mean_terms);
         E.Report.col "LFSR XOR gates" (fun (_, _, l, _) ->
             E.Report.d l.E.Ablation.xor_gates);
         E.Report.col "Shift-reg XOR gates" (fun (_, _, _, p) ->
             E.Report.d p.E.Ablation.xor_gates) ]
       sequences);
  print_endline
    "\nThe LFSR's feedback mixes every seed into long linear expressions;\n\
     a plain shift register leaves each cell a single seed bit, making the\n\
     XOR-tree Trojan almost free. This is Section III-d's design argument."
