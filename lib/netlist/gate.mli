(** Gate vocabulary of the netlist IR (ISCAS [.bench] plus multi-input
    associative gates and a 2-to-1 multiplexer with fanins [sel; a; b],
    selecting [a] when [sel] = 0). *)

type kind =
  | Input
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Mux

val to_string : kind -> string
val of_string : string -> kind option

(** Arity constraint: [`Exactly n] or [`At_least n]. *)
val arity : kind -> [ `Exactly of int | `At_least of int ]

val arity_ok : kind -> int -> bool

(** Gates that carry no logic (excluded from the paper's gate counts). *)
val is_inverter_like : kind -> bool
