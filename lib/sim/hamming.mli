(** Output-corruption measurement: average Hamming distance between two
    circuit configurations over shared pseudorandom input patterns. *)

(** Per-input binding: a fixed constant (e.g. a key bit) or the [j]-th
    signal of the pattern stream shared by both configurations. *)
type binding = Fixed of bool | Shared of int

type config = { netlist : Orap_netlist.Netlist.t; bindings : binding array }

(** One binding per input required. *)
val config : Orap_netlist.Netlist.t -> binding array -> config

(** Average fraction of differing output bits, in [0, 1], over [words]
    64-pattern words.  Raises [Invalid_argument] when [words] < 1, when the
    output counts differ or when there are no outputs. *)
val distance : ?seed:int -> words:int -> config -> config -> float
