(** Weighted logic locking (Karousos et al. [26]): groups of [ctrl_inputs]
    key bits drive NAND/AND control gates (inputs selectively inverted so
    the inactive value appears exactly on the correct sub-key) feeding
    XOR/XNOR key gates on high-fault-impact wires.  A random wrong key
    actuates each key gate with probability 1 - 2^-w. *)

(** One key gate per group of [ctrl_inputs] key bits (the last group may
    be narrower). *)
val num_key_gates : key_size:int -> ctrl_inputs:int -> int

(** Lock a circuit with a [key_size]-bit key and control gates of width
    [ctrl_inputs].  [seed] (default 7) draws the correct key and the
    fault-impact ranking; [avoid_critical] (default true) keeps key gates
    off near-critical paths.  Raises [Invalid_argument] if the circuit is
    too small for the requested number of key gates. *)
val lock :
  ?seed:int ->
  ?avoid_critical:bool ->
  Orap_netlist.Netlist.t ->
  key_size:int ->
  ctrl_inputs:int ->
  Locked.t
