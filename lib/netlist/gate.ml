(** Gate vocabulary of the netlist IR.

    The set covers the ISCAS'89 [.bench] vocabulary plus multi-input
    associative gates and a 2-to-1 multiplexer.  [Input] nodes have no fanin;
    [Const0]/[Const1] are constants; [Buf]/[Not] are single-input;
    [And]..[Xnor] accept any number >= 1 of fanins; [Mux] has exactly three fanins
    [sel; a; b] and selects [a] when [sel] = 0, [b] when [sel] = 1. *)

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

let to_string = function
  | Input -> "INPUT"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Mux -> "MUX"

let of_string s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "CONST0" -> Some Const0
  | "CONST1" -> Some Const1
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "MUX" -> Some Mux
  | _ -> None

(** Arity constraint of a gate kind: [`Exactly n] or [`At_least n]. *)
let arity = function
  | Input | Const0 | Const1 -> `Exactly 0
  | Buf | Not -> `Exactly 1
  | And | Nand | Or | Nor | Xor | Xnor -> `At_least 1
  | Mux -> `Exactly 3

let arity_ok kind n =
  match arity kind with
  | `Exactly m -> n = m
  | `At_least m -> n >= m

(** [is_inverter_like k] holds for gates that carry no logic (the paper's gate
    counts exclude inverters and buffers). *)
let is_inverter_like = function
  | Buf | Not -> true
  | Input | Const0 | Const1 | And | Nand | Or | Nor | Xor | Xnor | Mux -> false
