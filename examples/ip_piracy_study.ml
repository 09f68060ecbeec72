(** IP-piracy case study: an overproducing foundry attacks four locking
    techniques with the whole oracle-based arsenal, with and without OraP.

    This is the paper's introduction scenario: locking alone falls to the
    SAT attack family (and the SAT-resistant techniques that survive it pay
    with near-zero output corruption); protecting the oracle lets the
    designer keep a high-corruption technique and still resist. *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module E = Orap_experiments
module Evaluate = Orap_attacks.Evaluate

let () =
  let nl =
    Benchgen.generate
      { Benchgen.seed = 5; num_inputs = 32; num_outputs = 24; num_gates = 350 }
  in
  let techniques =
    [
      ("random", Orap_locking.Random_ll.lock nl ~key_size:24);
      ("weighted", Orap_locking.Weighted.lock nl ~key_size:24 ~ctrl_inputs:3);
      ("sarlock", Orap_locking.Sarlock.lock nl ~key_size:16);
      ("antisat", Orap_locking.Antisat.lock nl ~key_size:24);
    ]
  in
  let attacked =
    List.map
      (fun (name, locked) ->
        let wrong = Array.map not locked.Locked.correct_key in
        let hd = Locked.hamming_vs_original locked wrong in
        let r =
          Orap_attacks.Sat_attack.run ~max_iterations:80 locked
            (Oracle.functional locked)
        in
        (* the same circuit behind an OraP chip *)
        let design =
          Orap.protect
            ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:12 ())
            locked
        in
        let chip = Chip.create design in
        Chip.unlock chip;
        let r2 =
          Orap_attacks.Sat_attack.run ~max_iterations:80 locked
            (Oracle.scan_chip chip)
        in
        (name, locked, hd, r, r2))
      techniques
  in
  let verdict locked (r : Orap_attacks.Sat_attack.result) =
    Evaluate.to_string (Evaluate.of_outcome locked r.outcome)
  in
  E.Report.print
    (E.Report.table ~title:"Locking techniques vs SAT attack and corruption"
       [ E.Report.col ~align:L "Technique" (fun (name, _, _, _, _) -> name);
         E.Report.col "HD wrong key (%)" (fun (_, _, hd, _, _) -> E.Report.f1 hd);
         E.Report.col ~align:L "SAT (no OraP)" (fun (_, locked, _, r, _) ->
             verdict locked r);
         E.Report.col "DIPs" (fun (_, _, _, r, _) ->
             E.Report.d r.Orap_attacks.Sat_attack.iterations);
         E.Report.col ~align:L "SAT (with OraP)" (fun (_, locked, _, _, r2) ->
             verdict locked r2) ]
       attacked);
  print_endline
    "\nNote the tradeoff OraP removes: SARLock/Anti-SAT survive the SAT\n\
     attack longest but corrupt almost nothing (a pirated chip remains\n\
     usable); weighted locking corrupts heavily but falls immediately —\n\
     unless the oracle itself is protected."
