(** Literals: variable index [v >= 0] packed with a sign bit, Minisat-style.
    [2*v] is the positive literal, [2*v + 1] the negative one. *)

type t = int

let of_var ?(negated = false) v = (2 * v) + if negated then 1 else 0
let pos v = 2 * v
let neg v = (2 * v) + 1
let var (l : t) = l lsr 1
let is_neg (l : t) = l land 1 = 1
let negate (l : t) = l lxor 1

(** DIMACS integer: 1-based, negative for negated literals. *)
let to_dimacs (l : t) = if is_neg l then -(var l + 1) else var l + 1
let of_dimacs i =
  if i = 0 then invalid_arg "Lit.of_dimacs: zero";
  if i > 0 then pos (i - 1) else neg (-i - 1)
