(** Testability study (the Table II question): does testing the chip locked
    hurt manufacturing test?

    Because the key register sits in the scan chains, ATPG may drive the
    key inputs freely, so the key gates act as test points; coverage goes
    UP and fewer faults end up redundant/aborted.  The study also sweeps
    the PODEM backtrack limit to show where aborted faults come from. *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Locked = Orap_locking.Locked
module Atpg = Orap_atpg.Atpg
module E = Orap_experiments

let () =
  let profile, nl, locked =
    match Benchgen.find_profile "b20" with
    | Some p -> E.Table1.circuit ~scale:12 p
    | None -> assert false
  in
  Printf.printf "circuit %s: %d gates original, %d protected (key %d)\n\n"
    profile.Benchgen.name (N.gate_count nl)
    (N.gate_count locked.Locked.netlist)
    (Locked.key_size locked);
  let sweep =
    List.map
      (fun limit ->
        ( limit,
          Atpg.run ~backtrack_limit:limit nl,
          Atpg.run ~backtrack_limit:limit locked.Locked.netlist ))
      [ 8; 32; 128 ]
  in
  E.Report.print
    (E.Report.table ~title:"ATPG: original vs protected, backtrack-limit sweep"
       [ E.Report.col "Backtrack limit" (fun (limit, _, _) -> E.Report.d limit);
         E.Report.col "Orig FC (%)" (fun (_, ro, _) -> E.Report.f2 (Atpg.coverage ro));
         E.Report.col "Orig Red+Abrt" (fun (_, ro, _) ->
             E.Report.d (Atpg.redundant_plus_aborted ro));
         E.Report.col "Prot FC (%)" (fun (_, _, rp) -> E.Report.f2 (Atpg.coverage rp));
         E.Report.col "Prot Red+Abrt" (fun (_, _, rp) ->
             E.Report.d (Atpg.redundant_plus_aborted rp)) ]
       sweep);
  print_endline
    "\nThe protected circuit dominates at every effort level: scannable key\n\
     inputs give the ATPG extra controllability exactly where the key gates\n\
     were inserted (high fault-impact wires)."
