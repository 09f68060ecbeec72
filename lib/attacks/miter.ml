(** The miter of the SAT-family attacks: [k] copies of the locked circuit
    over one set of primary-input variables, each copy with its own key
    variables.

    A node whose fanin cone holds no key input computes the same function
    in every copy, so it is encoded once, in copy 0, and the other copies
    reuse its variable; only the key-dependent logic is duplicated.  An
    unshared miter leaves the solver to re-derive the equality of those
    duplicates by search, which dominates the final UNSAT proof.  The IO
    constraint of a DIP shares its key-free cone between the copies the
    same way. *)

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
  outs : int array array;  (** the output variables of each copy *)
  activate : Lit.t;  (** assumption literal guarding every difference *)
  const_true : int;
  const_false : int;
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
   [regular]; the key-free nodes are encoded in the first copy only.
   Returns each copy's output variables. *)
let encode_copies solver key_free (locked : Locked.t) ~regular keys =
  let nl = locked.Locked.netlist in
  let nri = locked.Locked.num_regular_inputs in
  let input_var kv i = if i < nri then regular i else kv.(i - nri) in
  let first = Tseitin.encode solver nl ~input_var:(input_var keys.(0)) in
  let reuse = Array.mapi (fun i v -> if key_free.(i) then v else -1) first in
  Array.mapi
    (fun c kv ->
      Tseitin.output_vars nl
        (if c = 0 then first
         else Tseitin.encode ~reuse solver nl ~input_var:(input_var kv)))
    keys

let create (locked : Locked.t) ~copies =
  let solver = Solver.create () in
  let x_vars = Solver.new_vars solver locked.Locked.num_regular_inputs in
  let keys =
    Array.init copies (fun _ -> Solver.new_vars solver (Locked.key_size locked))
  in
  let key_free = key_free locked in
  let outs =
    encode_copies solver key_free locked ~regular:(fun i -> x_vars.(i)) keys
  in
  let activate = Lit.pos (Solver.new_var solver) in
  let const_true = Solver.new_var solver in
  let const_false = Solver.new_var solver in
  ignore (Solver.add_clause solver [ Lit.pos const_true ]);
  ignore (Solver.add_clause solver [ Lit.neg const_false ]);
  { locked; solver; key_free; x_vars; keys; outs; activate; const_true;
    const_false }

(* Under [activate], some pair (a_j, b_j) differs.  A variable the two
   sides share cannot differ, so it gets no XOR. *)
let require_difference m a b =
  let add c = ignore (Solver.add_clause m.solver c) in
  let diffs = ref [] in
  Array.iter2
    (fun u v ->
      if u <> v then begin
        let d = Solver.new_var m.solver in
        add [ Lit.neg d; Lit.pos u; Lit.pos v ];
        add [ Lit.neg d; Lit.neg u; Lit.neg v ];
        add [ Lit.pos d; Lit.pos u; Lit.neg v ];
        add [ Lit.pos d; Lit.neg u; Lit.pos v ];
        diffs := Lit.pos d :: !diffs
      end)
    a b;
  add (Lit.negate m.activate :: !diffs)

(** Under [activate], copies [i] and [j] disagree on some output. *)
let outputs_differ m i j = require_difference m m.outs.(i) m.outs.(j)

(** Under [activate], the keys of copies [i] and [j] differ. *)
let keys_differ m i j = require_difference m m.keys.(i) m.keys.(j)

(** The IO constraint [C(dip, K_c) = y] on every key copy [c]. *)
let add_io m dip y =
  let regular i = if dip.(i) then m.const_true else m.const_false in
  let outs = encode_copies m.solver m.key_free m.locked ~regular m.keys in
  Array.iter
    (Array.iteri (fun j v ->
         let l = if y.(j) then Lit.pos v else Lit.neg v in
         ignore (Solver.add_clause m.solver [ l ])))
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
