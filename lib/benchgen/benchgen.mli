(** Seeded synthetic combinational benchmark generator and the Table-I
    circuit profiles (see DESIGN.md §2 for the substitution rationale). *)

type spec = {
  seed : int;
  num_inputs : int;
  num_outputs : int;
  num_gates : int;  (** target count of non-inverter gates *)
}

(** Deterministic generation; gate count lands within a few gates of the
    target, output count is met exactly. *)
val generate : spec -> Orap_netlist.Netlist.t

type profile = {
  name : string;
  inputs : int;
  outputs : int;
  gates : int;
  lfsr_size : int;  (** key size = LFSR length (Table I, column 4) *)
  ctrl_inputs : int;  (** control-gate width (column 5) *)
}

(** The eight circuits of the paper's Table I. *)
val table1_profiles : profile list

val find_profile : string -> profile option
val of_profile : profile -> Orap_netlist.Netlist.t

(** Scaled-down profile for quick runs (gates and I/O divided by [factor],
    key size by at most 4). *)
val scale : factor:int -> profile -> profile
