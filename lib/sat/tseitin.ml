(** Tseitin encoding of a combinational netlist into solver clauses, with
    constant folding.

    Every node maps to a solver literal or to one of two constants, [true_]
    and [false_]: reserved negative ints that [Lit.negate] swaps like any
    literal.  A caller that ties some inputs to constants gets variables and
    clauses only for the logic those constants leave undecided; a netlist
    whose inputs are all literals and which holds no [Const0]/[Const1] gate
    gets one variable and the full clause set per gate. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

let true_ = -2
let false_ = Lit.negate true_
let const b = if b then true_ else false_
let is_const (l : Lit.t) = l < 0

(** [clause solver lits] asserts the disjunction of [lits], which may hold
    constants: a [true_] satisfies the clause, so nothing is added, and a
    [false_] is dropped, so a clause of [false_]s alone is the empty
    clause and makes the solver inconsistent. *)
let clause solver lits =
  let has c = List.exists (fun (l : Lit.t) -> l = c) lits in
  if not (has true_) then
    ignore
      (Solver.add_clause solver
         (if has false_ then List.filter (fun (l : Lit.t) -> l <> false_) lits
          else lits))

(* o <-> a xor b, for literals a and b *)
let xor2 solver o a b =
  let add = clause solver in
  add [ Lit.negate o; a; b ];
  add [ Lit.negate o; Lit.negate a; Lit.negate b ];
  add [ o; a; Lit.negate b ];
  add [ o; Lit.negate a; b ]

(** [xor solver a b] is [a] xor [b]: the other side (negated under
    [true_]) when either is a constant, else a fresh variable. *)
let xor solver a b =
  if is_const a then if a = true_ then Lit.negate b else b
  else if is_const b then if b = true_ then Lit.negate a else a
  else
    let d = Lit.pos (Solver.new_var solver) in
    xor2 solver d a b;
    d

(* o <-> AND(xs), for literals xs *)
let and_clauses solver o xs =
  let add = clause solver in
  Array.iter (fun x -> add [ Lit.negate o; x ]) xs;
  add (o :: Array.to_list (Array.map Lit.negate xs))

(* o <-> XOR(xs) xor [neg], for literals xs; the fold runs through fresh
   auxiliary variables *)
let xor_chain solver o ~neg xs =
  let add = clause solver in
  let n = Array.length xs in
  if n = 1 then begin
    let x = if neg then Lit.negate xs.(0) else xs.(0) in
    add [ Lit.negate o; x ];
    add [ o; Lit.negate x ]
  end
  else begin
    let acc = ref xs.(0) in
    for j = 1 to n - 2 do
      let aux = Lit.pos (Solver.new_var solver) in
      xor2 solver aux !acc xs.(j);
      acc := aux
    done;
    if neg then begin
      (* o = not (acc xor last)  <=>  (not o) = acc xor last *)
      let aux = Lit.pos (Solver.new_var solver) in
      xor2 solver aux !acc xs.(n - 1);
      add [ Lit.negate o; Lit.negate aux ];
      add [ o; aux ]
    end
    else xor2 solver o !acc xs.(n - 1)
  end

(* the literals of [fan] other than constants, mapped through [f] *)
let live_lits lits f fan live =
  let xs = Array.make live 0 and n = ref 0 in
  Array.iter
    (fun i ->
      let l = lits.(i) in
      if not (is_const l) then begin
        xs.(!n) <- f l;
        incr n
      end)
    fan;
  xs

(* The literal of a gate of kind [k] over the fanin nodes [fan], whose
   literals are in [lits]. *)
let gate solver k fan lits =
  let fresh () = Lit.pos (Solver.new_var solver) in
  let nf = Array.length fan in
  match k with
  | Gate.Input -> assert false
  | Gate.Const0 -> false_
  | Gate.Const1 -> true_
  | Gate.Buf | Gate.Not ->
    let x = lits.(fan.(0)) in
    let neg = k = Gate.Not in
    if is_const x then if neg then Lit.negate x else x
    else begin
      let v = fresh () in
      xor_chain solver v ~neg [| x |];
      v
    end
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    (* each kind is AND over [pol]-mapped fanins with the output negated
       under [out_neg]: OR(f) = not AND(not f) *)
    let pol = if k = Gate.Or || k = Gate.Nor then Lit.negate else Fun.id in
    let out_neg = k = Gate.Nand || k = Gate.Or in
    let out l = if out_neg then Lit.negate l else l in
    let controlled = ref false and live = ref 0 and last = ref false_ in
    for j = 0 to nf - 1 do
      let x = pol lits.(fan.(j)) in
      if x = false_ then controlled := true
      else if not (is_const x) then begin
        incr live;
        last := x
      end
    done;
    if !controlled then out false_
    else if !live = 0 then out true_
    else if !live = 1 && nf > 1 then out !last
    else begin
      let v = fresh () in
      and_clauses solver (out v) (live_lits lits pol fan !live);
      v
    end
  | Gate.Xor | Gate.Xnor ->
    let parity = ref (k = Gate.Xnor) and live = ref 0 and last = ref false_ in
    for j = 0 to nf - 1 do
      let x = lits.(fan.(j)) in
      if x = true_ then parity := not !parity
      else if not (is_const x) then begin
        incr live;
        last := x
      end
    done;
    if !live = 0 then const !parity
    else if !live = 1 && nf > 1 then
      if !parity then Lit.negate !last else !last
    else begin
      let v = fresh () in
      xor_chain solver v ~neg:!parity (live_lits lits Fun.id fan !live);
      v
    end
  | Gate.Mux ->
    (* sel = 0 picks a, sel = 1 picks b *)
    let sel = lits.(fan.(0)) and a = lits.(fan.(1)) and b = lits.(fan.(2)) in
    if is_const sel then if sel = true_ then b else a
    else if is_const a && is_const b then
      if a = b then a else if b = true_ then sel else Lit.negate sel
    else begin
      let v = fresh () and add = clause solver in
      add [ Lit.negate v; sel; a ];
      add [ v; sel; Lit.negate a ];
      add [ Lit.negate v; Lit.negate sel; b ];
      add [ v; Lit.negate sel; Lit.negate b ];
      v
    end

(** [encode solver t ~input] maps every netlist node to a literal or a
    constant and asserts the gate-consistency clauses.  Input nodes take
    [input pos] ([pos] is the position of the node in [N.inputs t]): a
    literal, which lets circuit copies share variables (the SAT-attack
    miter shares the primary inputs but not the key inputs), or a constant.

    Constants fold: a controlling constant fanin makes a gate constant,
    constant XOR/XNOR fanins fold into a parity bit, and a gate left with
    one live fanin of several becomes that literal, negated if needed;
    [Const0]/[Const1] gates are constants.  A gate whose fanins are all
    literals gets a fresh variable and its full clause set.

    With [reuse = (shared, first)], a gate [i] with [shared.(i)] is not
    encoded: it takes [first.(i)], which an earlier encoding already
    constrains (a miter copy reuses the key-independent logic of its first
    copy).  Returns the literal of every node. *)
let encode ?reuse (solver : Solver.t) (t : N.t) ~(input : int -> Lit.t) :
    Lit.t array =
  let n = N.num_nodes t in
  let lits = Array.make n false_ in
  let input_pos = ref 0 in
  for i = 0 to n - 1 do
    match N.kind t i, reuse with
    | Gate.Input, _ ->
      lits.(i) <- input !input_pos;
      incr input_pos
    | _, Some (shared, first) when shared.(i) -> lits.(i) <- first.(i)
    | k, _ -> lits.(i) <- gate solver k (N.fanins t i) lits
  done;
  lits

(** Literals of the primary outputs given the node-literal map. *)
let outputs (t : N.t) (lits : Lit.t array) : Lit.t array =
  Array.map (fun o -> lits.(o)) (N.outputs t)
