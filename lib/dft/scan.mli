(** Scan-chain structure: an ordering of the circuit's state flip-flops and
    the key-register (LFSR) cells, which OraP deliberately places in the
    chains.  Shift direction: scan-in -> cell 0 -> ... -> scan-out. *)

type cell = Key of int  (** LFSR cell index *) | State of int  (** FF index *)

type style =
  | Key_first  (** all LFSR cells ahead of the state FFs *)
  | Interleaved  (** paper guideline: maximises the scenario-(b) payload *)
  | Key_last  (** anti-pattern, kept for the threat experiments *)

type t

val build : ?style:style -> num_key:int -> num_state:int -> unit -> t
val order : t -> cell array
val length : t -> int

(** The chain with its key cells bypassed (scenario (b)'s Trojan). *)
val without_keys : t -> t

(** Chain positions of the key cells. *)
val key_positions : t -> int list

(** Key cells immediately followed by a state FF (or ending the chain):
    each boundary costs the scenario-(b) Trojan one bypass MUX. *)
val bypass_mux_count : t -> int
