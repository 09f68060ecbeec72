(** Five-valued D-calculus for ATPG: each value carries a (good, faulty)
    pair of ternary components.

    [F]/[T] — both machines 0/1; [D] — good 1, faulty 0; [Db] — good 0,
    faulty 1; [X] — unknown in at least one machine. *)

type t = F | T | D | Db | X

(* ternary component encoding: 0, 1, 2=unknown *)
let good = function F -> 0 | T -> 1 | D -> 1 | Db -> 0 | X -> 2
let faulty = function F -> 0 | T -> 1 | D -> 0 | Db -> 1 | X -> 2

let of_pair g f =
  match (g, f) with
  | 0, 0 -> F
  | 1, 1 -> T
  | 1, 0 -> D
  | 0, 1 -> Db
  | _ -> X

let of_bool b = if b then T else F

(* ternary gate primitives *)
let tand a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else 2
let tor a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else 2
let txor a b = if a = 2 || b = 2 then 2 else a lxor b
let tnot a = if a = 2 then 2 else 1 - a

let map2 fg (a : t) (b : t) : t =
  of_pair (fg (good a) (good b)) (fg (faulty a) (faulty b))

let v_and = map2 tand
let v_or = map2 tor
let v_xor = map2 txor
let v_not a = of_pair (tnot (good a)) (tnot (faulty a))

(** Evaluate a gate over five-valued operands. *)
let eval_gate (kind : Orap_netlist.Gate.kind) (ops : t array) : t =
  let module G = Orap_netlist.Gate in
  let fold f init =
    let acc = ref init in
    Array.iter (fun v -> acc := f !acc v) ops;
    !acc
  in
  match kind with
  | G.Input -> invalid_arg "Five.eval_gate: Input"
  | G.Const0 -> F
  | G.Const1 -> T
  | G.Buf -> ops.(0)
  | G.Not -> v_not ops.(0)
  | G.And -> fold v_and T
  | G.Nand -> v_not (fold v_and T)
  | G.Or -> fold v_or F
  | G.Nor -> v_not (fold v_or F)
  | G.Xor -> fold v_xor F
  | G.Xnor -> v_not (fold v_xor F)
  | G.Mux ->
    let sel = ops.(0) and a = ops.(1) and b = ops.(2) in
    v_or (v_and (v_not sel) a) (v_and sel b)

(** Is the value a fault effect? *)
let is_d = function D | Db -> true | F | T | X -> false
let is_x = function X -> true | F | T | D | Db -> false

(** Apply a stuck-at fault at its site to the locally computed value. *)
let faulted (v : t) ~stuck : t =
  let fv = if stuck then 1 else 0 in
  of_pair (good v) fv
