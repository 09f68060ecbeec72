(** Greedy netlist shrinking.

    [shrink fails nl] repeatedly applies local reductions — dropping
    outputs, rewiring a gate's readers to one of its fanins, collapsing a
    gate to a constant, narrowing associative gates — keeping a candidate
    only when [fails] still holds (a raised exception counts as "does not
    reproduce"), until no reduction reproduces the failure.  The result is
    a locally minimal counterexample; primary inputs are never removed, so
    properties comparing against a same-interface reference stay
    well-typed throughout. *)

val shrink :
  (Orap_netlist.Netlist.t -> bool) ->
  Orap_netlist.Netlist.t ->
  Orap_netlist.Netlist.t

(** One-line size summary plus the [.bench] text
    ({!Orap_netlist.Bench_format.print}). *)
val report : Orap_netlist.Netlist.t -> string
