(** Foundry-Trojan study: the Section III threat model end to end.

    An untrusted foundry fabricates OraP-protected chips with each of the
    five Trojan scenarios, buys an activated part from the open market and
    tries to reach the oracle.  For every scenario the study reports whether
    the oracle was obtained, the payload the Trojan had to embed, and
    whether side-channel screening would expose it — plus a payload sweep
    over key size showing how the defence scales. *)

module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Orap = Orap_core.Orap
module Threat = Orap_core.Threat
module E = Orap_experiments

let () =
  let fx = E.Security.make_fixture ~seed:9 ~num_gates:600 ~key_size:48 () in
  E.Report.print (E.Trojan_table.report (E.Trojan_table.run fx));

  (* payload sweep: scenario payloads vs key-register size *)
  let designs =
    List.map
      (fun key_size ->
        let nl =
          Benchgen.generate
            { Benchgen.seed = 10; num_inputs = 64; num_outputs = 48;
              num_gates = 8 * key_size }
        in
        let locked = Weighted.lock nl ~key_size ~ctrl_inputs:3 in
        ( key_size,
          Orap.protect
            ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:24 ())
            locked ))
      [ 32; 64; 128; 256 ]
  in
  let payload header sc =
    E.Report.col header (fun (_, design) -> E.Report.f1 (Threat.payload design sc))
  in
  E.Report.print
    (E.Report.table ~title:"Trojan payload vs key size (NAND2-equivalents)"
       [ E.Report.col "Key size" (fun (key_size, _) -> E.Report.d key_size);
         payload "(a) resets" Threat.Suppress_cell_resets;
         payload "(b) bypass" Threat.Exclude_lfsr_from_scan;
         payload "(c) shadow" Threat.Shadow_register;
         payload "(d) XOR trees" Threat.Xor_tree_key ]
       designs);
  Printf.printf
    "\nPaper reference: a 128-bit key register makes scenario (a) cost\n\
     roughly %.0f NAND2 gates; every payload above the side-channel\n\
     threshold (%.0f) is detectable after activation [25].\n"
    (E.Trojan_table.paper_reference_payload_a ~key_size:128)
    Threat.default_detection_threshold
