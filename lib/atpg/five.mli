(** Five-valued D-calculus: [F]/[T] both machines 0/1, [D] good 1 / faulty
    0, [Db] the reverse, [X] unknown. *)

type t = F | T | D | Db | X

(** Ternary components (0, 1, 2 = unknown). *)
val good : t -> int

val faulty : t -> int
val of_pair : int -> int -> t
val of_bool : bool -> t

val v_and : t -> t -> t
val v_or : t -> t -> t
val v_xor : t -> t -> t
val v_not : t -> t

val eval_gate : Orap_netlist.Gate.kind -> t array -> t

val is_d : t -> bool
val is_x : t -> bool

(** Apply a stuck-at fault at its site to the locally computed value. *)
val faulted : t -> stuck:bool -> t
