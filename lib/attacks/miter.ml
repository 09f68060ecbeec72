(** The miter of the SAT-family attacks: [k] copies of the locked circuit
    over one set of primary-input variables, each copy with its own key
    variables.

    A node whose fanin cone holds no key input computes the same function
    in every copy, so it is encoded once, in copy 0, and the other copies
    reuse its literal; only the key-dependent logic is duplicated.  An
    unshared miter leaves the solver to re-derive the equality of those
    duplicates by search, which dominates the final UNSAT proof.

    The IO constraint of a DIP ties the regular inputs to the DIP's bits as
    constants, which [Tseitin.encode] folds: the key-free cone becomes
    constants, and only the key-dependent logic those constants leave
    undecided gets variables and clauses. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Locked = Orap_locking.Locked
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Tseitin = Orap_sat.Tseitin

type t = {
  locked : Locked.t;
  solver : Solver.t;
  key_free : bool array;  (** per node: no key input in its fanin cone *)
  x_vars : int array;
  keys : int array array;  (** the key variables of each copy *)
  outs : Lit.t array array;  (** the output literals of each copy *)
  activate : Lit.t;  (** assumption literal guarding every difference *)
}

let key_free (locked : Locked.t) =
  let nl = locked.Locked.netlist in
  let nri = locked.Locked.num_regular_inputs in
  let free = Array.make (N.num_nodes nl) true in
  Array.iteri (fun pos id -> if pos >= nri then free.(id) <- false) (N.inputs nl);
  for i = 0 to N.num_nodes nl - 1 do
    if N.kind nl i <> Gate.Input then
      free.(i) <- Array.for_all (fun f -> free.(f)) (N.fanins nl i)
  done;
  free

(* One circuit copy per key-variable array, the regular inputs mapped by
   [regular] to literals or constants; the key-free nodes are encoded in
   the first copy only.  Returns each copy's output literals. *)
let encode_copies solver key_free (locked : Locked.t) ~regular keys =
  let nl = locked.Locked.netlist in
  let nri = locked.Locked.num_regular_inputs in
  let input kv i = if i < nri then regular i else Lit.pos kv.(i - nri) in
  let first = Tseitin.encode solver nl ~input:(input keys.(0)) in
  let reuse = (key_free, first) in
  Array.mapi
    (fun c kv ->
      Tseitin.outputs nl
        (if c = 0 then first
         else Tseitin.encode ~reuse solver nl ~input:(input kv)))
    keys

let create (locked : Locked.t) ~copies =
  let solver = Solver.create () in
  let x_vars = Solver.new_vars solver locked.Locked.num_regular_inputs in
  let keys =
    Array.init copies (fun _ -> Solver.new_vars solver (Locked.key_size locked))
  in
  let key_free = key_free locked in
  let outs =
    encode_copies solver key_free locked
      ~regular:(fun i -> Lit.pos x_vars.(i)) keys
  in
  let activate = Lit.pos (Solver.new_var solver) in
  { locked; solver; key_free; x_vars; keys; outs; activate }

(* Under [activate], some pair (a_j, b_j) differs.  A literal the two
   sides share cannot differ, so it gets no XOR. *)
let require_difference m a b =
  let diffs = ref [] in
  Array.iter2
    (fun u v -> if u <> v then diffs := Tseitin.xor m.solver u v :: !diffs)
    a b;
  Tseitin.clause m.solver (Lit.negate m.activate :: !diffs)

(** Under [activate], copies [i] and [j] disagree on some output. *)
let outputs_differ m i j = require_difference m m.outs.(i) m.outs.(j)

(** Under [activate], the keys of copies [i] and [j] differ. *)
let keys_differ m i j =
  require_difference m (Array.map Lit.pos m.keys.(i)) (Array.map Lit.pos m.keys.(j))

let check_width what ~expected got =
  if got <> expected then
    invalid_arg
      (Printf.sprintf "Miter.add_io: expected %s width %d, got %d" what expected
         got)

(** The IO constraint [C(dip, K_c) = y] on every key copy [c].  [dip]
    holds one bit per regular input and [y] one per output. *)
let add_io m dip y =
  let nl = m.locked.Locked.netlist in
  check_width "DIP" ~expected:m.locked.Locked.num_regular_inputs
    (Array.length dip);
  check_width "response" ~expected:(N.num_outputs nl) (Array.length y);
  let regular i = Tseitin.const dip.(i) in
  let outs = encode_copies m.solver m.key_free m.locked ~regular m.keys in
  (* an output that folds to the wrong constant adds the empty clause *)
  Array.iter
    (Array.iteri (fun j l ->
         Tseitin.clause m.solver [ (if y.(j) then l else Lit.negate l) ]))
    outs

(* Read [vars] off the model of the last [Sat] answer, then return the
   solver to the root so clauses can be added. *)
let model m vars =
  let v = Array.map (Solver.model_value m.solver) vars in
  Solver.backtrack_to_root m.solver;
  v

(** The distinguishing input of the last [Sat] answer. *)
let dip m = model m m.x_vars

(** The key of copy [c] in the last [Sat] answer. *)
let key m c = model m m.keys.(c)
