(** Removal attack [9]: strip everything driven by the key inputs and
    splice the key gates' functional inputs through.

    On a freshly locked netlist whose key gates are still structurally
    identifiable (named key inputs, XOR/XNOR fed by a control gate in the
    key inputs' fanout cone) the attack recovers the original circuit — the
    reason locked designs are resynthesised before hand-off.  After
    resynthesis (strash/refactor/rewrite) the key logic dissolves into the
    surrounding AIG and the identification heuristic collapses.  Against
    OraP, removing the LFSR and key gates does not unlock anything either
    way (Section II-A): the attacker obtains the locked function, not the
    original. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Locked = Orap_locking.Locked

type result = {
  netlist : N.t;  (** the circuit after removal *)
  removed_key_gates : int;  (** XOR/XNOR splice points undone *)
}

(** Structural identification: a node is a key gate if it is a 2-input
    XOR/XNOR with exactly one *pure-key* fanin — a node whose entire input
    support consists of key inputs (a key input itself, an inverted one, or
    a control gate over key literals).  The convention (key gates pass when
    the pure-key side is at its inactive value) matches both XOR/NAND and
    XNOR/AND locking flavours. *)
let identify_key_gates (locked : Locked.t) : (int * int) list =
  let nl = locked.Locked.netlist in
  let n = N.num_nodes nl in
  (* pure-key: every PI in the node's support is a key input *)
  let is_key_input = Array.make n false in
  Array.iter
    (fun pos -> is_key_input.((N.inputs nl).(pos)) <- true)
    (Locked.key_input_positions locked);
  let pure = Array.make n false in
  for i = 0 to n - 1 do
    pure.(i) <-
      (match N.kind nl i with
      | Gate.Input -> is_key_input.(i)
      | Gate.Const0 | Gate.Const1 -> false
      | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor | Gate.Mux ->
        Array.length (N.fanins nl i) > 0
        && Array.for_all (fun f -> pure.(f)) (N.fanins nl i))
  done;
  let gates = ref [] in
  for i = 0 to n - 1 do
    match N.kind nl i with
    | Gate.Xor | Gate.Xnor ->
      let fan = N.fanins nl i in
      if Array.length fan = 2 then begin
        match (pure.(fan.(0)), pure.(fan.(1))) with
        | true, false -> gates := (i, fan.(1)) :: !gates
        | false, true -> gates := (i, fan.(0)) :: !gates
        | true, true | false, false -> ()
      end
    | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Mux ->
      ()
  done;
  List.rev !gates

(** Execute the removal: every identified key gate is replaced by its clean
    (non-key-cone) fanin; key inputs remain as dangling inputs. *)
let attack (locked : Locked.t) : result =
  let nl = locked.Locked.netlist in
  let splices = identify_key_gates locked in
  let splice_of = Hashtbl.create 16 in
  List.iter (fun (g, keep) -> Hashtbl.replace splice_of g keep) splices;
  let b = N.Builder.create ~size_hint:(N.num_nodes nl) () in
  let map = Array.make (N.num_nodes nl) (-1) in
  let node i copy =
    match Hashtbl.find_opt splice_of i with Some keep -> map.(keep) | None -> copy ()
  in
  ignore (N.copy_into ~node b nl map);
  Array.iter (fun o -> N.Builder.mark_output b map.(o)) (N.outputs nl);
  { netlist = N.Builder.finish b; removed_key_gates = List.length splices }

(** Does the removal recover the original function?  (Checked on random
    patterns over the original inputs; the removed netlist still carries
    the dangling key inputs, which are driven arbitrarily.) *)
let recovers_original ?(seed = 77) ?(n = 128) (locked : Locked.t) (r : result) :
    bool =
  let rng = Orap_sim.Prng.create seed in
  let nri = locked.Locked.num_regular_inputs in
  let total = N.num_inputs r.netlist in
  let ok = ref true in
  for _ = 1 to n do
    let inp = Orap_sim.Prng.bool_array rng total in
    let base = Array.sub inp 0 nri in
    let got = Orap_sim.Sim.eval_bools r.netlist inp in
    let want = Orap_sim.Sim.eval_bools locked.Locked.original base in
    if got <> want then ok := false
  done;
  !ok
