(** Symbolic (GF(2)) simulation of the key-register LFSR: every cell holds a
    linear expression over the seed-bit variables instead of a binary value.

    This is exactly the computation the paper's attack scenario (d) performs
    ("replace the unknown key-bit values with binary variables and perform a
    symbolic simulation of the LFSR"); the size of the resulting expressions
    dictates the XOR-tree payload such a Trojan must embed, which is the
    countermeasure's security argument. *)

(* One symbolic clock edge mirroring {!Lfsr.step}: [fresh] is the first of
   the variables injected at the reseeding points ([None]: a free run).  A
   fresh variable appears in no cell yet, so injecting it is setting it. *)
let step (lfsr : Lfsr.t) cells fresh =
  let n = Array.length cells in
  let taps = Lfsr.taps_of lfsr in
  let fb = cells.(n - 1) in
  let next =
    Array.init n (fun i ->
        if i = 0 then Bitset.copy fb
        else if taps.(i) then Bitset.xor cells.(i - 1) fb
        else Bitset.copy cells.(i - 1))
  in
  (match fresh with
  | None -> ()
  | Some v0 ->
    Array.iteri
      (fun k p -> Bitset.set next.(p) (v0 + k))
      (Lfsr.reseed_points_of lfsr));
  next

(** Clock a cleared register once per element of [injects]; a [true] cycle
    injects the next [width] variables.  Returns the final-state expressions
    and the variable count. *)
let unroll (lfsr : Lfsr.t) (injects : bool list) : Bitset.t array * int =
  let width = Lfsr.num_reseed_points lfsr in
  let num_vars = width * List.length (List.filter Fun.id injects) in
  let cells = Array.init (Lfsr.size lfsr) (fun _ -> Bitset.create num_vars) in
  let cells, _ =
    List.fold_left
      (fun (cells, v) inject ->
        if inject then (step lfsr cells (Some v), v + width)
        else (step lfsr cells None, v))
      (cells, 0) injects
  in
  (cells, num_vars)

(** XOR-gate count of the combinational trees realising the expressions —
    the payload of attack scenario (d). *)
let xor_tree_gates (exprs : Bitset.t array) : int =
  Array.fold_left (fun acc e -> acc + max 0 (Bitset.popcount e - 1)) 0 exprs

(** Average number of variables per cell expression (expression density). *)
let mean_terms (exprs : Bitset.t array) : float =
  let total = Array.fold_left (fun acc e -> acc + Bitset.popcount e) 0 exprs in
  float_of_int total /. float_of_int (Array.length exprs)

(** Solve the GF(2) linear system [exprs * x = target] by Gaussian
    elimination.  [num_vars] is the variable universe of the expressions.
    Returns a satisfying assignment (free variables at [false]), or [None]
    when the system is inconsistent. *)
let solve (exprs : Bitset.t array) ~num_vars (target : bool array) :
    bool array option =
  let n = Array.length exprs in
  if Array.length target <> n then invalid_arg "Symbolic.solve";
  let rows = Array.map Bitset.copy exprs in
  let rhs = Array.copy target in
  let solution = Array.make num_vars false in
  let pivot_of_row = Array.make n (-1) in
  let r = ref 0 in
  for col = 0 to num_vars - 1 do
    if !r < n then begin
      let found = ref (-1) in
      for i = !r to n - 1 do
        if !found < 0 && Bitset.mem rows.(i) col then found := i
      done;
      match !found with
      | -1 -> ()
      | i ->
        let tmp = rows.(i) in
        rows.(i) <- rows.(!r);
        rows.(!r) <- tmp;
        let tb = rhs.(i) in
        rhs.(i) <- rhs.(!r);
        rhs.(!r) <- tb;
        for j = 0 to n - 1 do
          if j <> !r && Bitset.mem rows.(j) col then begin
            Bitset.xor_into ~into:rows.(j) rows.(!r);
            rhs.(j) <- rhs.(j) <> rhs.(!r)
          end
        done;
        pivot_of_row.(!r) <- col;
        incr r
    end
  done;
  let consistent = ref true in
  for i = !r to n - 1 do
    if rhs.(i) && Bitset.is_empty rows.(i) then consistent := false
  done;
  if not !consistent then None
  else begin
    for i = 0 to !r - 1 do
      if rhs.(i) then solution.(pivot_of_row.(i)) <- true
    done;
    Some solution
  end
