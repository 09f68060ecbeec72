(** PODEM test-pattern generation for single stuck-at faults, over an
    event-driven five-valued implication engine with SCOAP-guided
    backtrace. *)

type outcome =
  | Test of bool option array  (** per-PI assignment; [None] = don't-care *)
  | Redundant
  | Aborted

type engine

(** Build the per-circuit engine (fanouts, SCOAP measures, value arrays);
    reusable across faults. *)
val create : Orap_netlist.Netlist.t -> engine

(** Generate a test for [fault], prove it redundant, or abort after
    [backtrack_limit] backtracks (or an internal decision cap). *)
val run : engine -> Orap_faultsim.Fault.t -> backtrack_limit:int -> outcome

(** Search effort, summed over every {!run} on the engine: [decisions]
    counts search steps (the quantity the internal decision cap bounds),
    [backtracks] counts conflicts, and [implications] counts node
    evaluations drained from the event queue. *)
type stats = { decisions : int; backtracks : int; implications : int }

val stats : engine -> stats
