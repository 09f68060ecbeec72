(** ATPG driver, Atalanta-flow style: a random-pattern fault-simulation
    phase with dropping, then PODEM per surviving fault with every
    generated test fault-simulated against the rest. *)

type report = {
  total_faults : int;
  detected : int;
  redundant : int;
  aborted : int;
  random_detected : int;
  patterns : bool array list;  (** deterministic tests, PI-ordered *)
}

(** Fault coverage in percent: detected / total; 100.0 when there are no
    faults, which are then all (vacuously) covered. *)
val coverage : report -> float

(** Table II's last column. *)
val redundant_plus_aborted : report -> int

val run :
  ?seed:int ->
  ?random_words:int ->
  ?backtrack_limit:int ->
  Orap_netlist.Netlist.t ->
  report

(** Reverse-order test compaction: keep only patterns that detect a fault
    not covered by a later pattern; coverage is preserved. *)
val compact_patterns :
  Orap_netlist.Netlist.t -> bool array list -> bool array list
