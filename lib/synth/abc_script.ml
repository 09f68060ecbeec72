(** The resynthesis pipeline used by the paper's overhead measurements:
    [strash -> refactor -> rewrite] (ABC command sequence of Xu et al. [12]),
    followed by a balancing pass for the level metric.

    Area is the live AND-node count (gates without inverters); delay is the
    AND level of the deepest output. *)

module Telemetry = Orap_telemetry.Telemetry

type metrics = { ands : int; levels : int }

let metrics_of_aig aig = { ands = Aig.num_live_ands aig; levels = Aig.depth aig }

(* each rewriting pass is timed and reports the AND count it produced *)
let timed name f =
  Telemetry.span name
    ~exit_args:(fun aig -> [ ("ands", Telemetry.Int (Aig.num_live_ands aig)) ])
    f

(** [optimize netlist] returns the optimised AIG.  [effort] bounds the
    number of refactor/rewrite rounds. *)
let optimize ?(effort = 1) (nl : Orap_netlist.Netlist.t) : Aig.t =
  let aig = ref (Aig.of_netlist nl) in
  for _ = 1 to effort do
    (* refactor: large cuts; rewrite: small cuts everywhere *)
    aig := timed "synth.refactor" (fun () -> Refactor.run ~cut_size:10 ~min_cone:3 !aig);
    aig := timed "synth.rewrite" (fun () -> Refactor.run ~cut_size:4 ~min_cone:1 !aig)
  done;
  aig := timed "synth.balance" (fun () -> Balance.run !aig);
  !aig

(** Optimise and report the paper's two metrics. *)
let evaluate ?effort (nl : Orap_netlist.Netlist.t) : metrics =
  metrics_of_aig (optimize ?effort nl)

(** Overhead of [protected_] over [original] in percent, both measured
    with {!evaluate} — exactly how Table I is computed.  [extra_ands] is
    hardware added beside the protected netlist (OraP's pulse generators
    and XOR gates, in AND-node units); a protected circuit shallower than
    the original has no delay overhead. *)
type overhead = { area_pct : float; delay_pct : float }

let overhead ~original ~protected_ ~extra_ands : overhead =
  {
    area_pct =
      100.0
      *. float_of_int (protected_.ands + extra_ands - original.ands)
      /. float_of_int original.ands;
    delay_pct =
      (if original.levels = 0 then 0.0
       else
         100.0
         *. float_of_int (max 0 (protected_.levels - original.levels))
         /. float_of_int original.levels);
  }
