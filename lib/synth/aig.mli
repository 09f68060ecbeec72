(** And-Inverter Graph with structural hashing.  AIGER literal convention:
    node [n] yields literals [2n] and [2n+1]; literal 0 is FALSE, 1 is TRUE;
    nodes 1..num_pis are the primary inputs. *)

type t

val false_lit : int
val true_lit : int
val node_of_lit : int -> int
val is_compl : int -> bool
val compl_lit : int -> int

(** Raises [Invalid_argument] unless [0 <= num_pis < 2^30]. *)
val create : num_pis:int -> t
val num_pis : t -> int
val num_nodes : t -> int
val outputs : t -> int array
val set_outputs : t -> int array -> unit
val pi_lit : t -> int -> int
val is_pi : t -> int -> bool
val is_and : t -> int -> bool
val is_const : int -> bool
val fanin0 : t -> int -> int
val fanin1 : t -> int -> int

(** AND-node count: the area metric (inverters are free edge attributes). *)
val num_ands : t -> int

(** AND nodes reachable from the outputs only. *)
val num_live_ands : t -> int

(** {1 Construction (hashed, with trivial-case simplification)} *)

(** The strash keys a node by its two fanin literals packed into one int,
    31 bits each, so a graph holds at most 2^30 nodes: creating one more
    raises [Invalid_argument]. *)
val and_lit : t -> int -> int -> int
val and_list : t -> int list -> int
val or_list : t -> int list -> int

(** {1 Analyses} *)

val levels : t -> int array
val depth : t -> int
val ref_counts : t -> int array

(** {1 Netlist bridges} *)

val of_netlist : Orap_netlist.Netlist.t -> t
val to_netlist : t -> Orap_netlist.Netlist.t
