(** Bypass attack (Xu et al. [12]).

    Pick any wrong key K'; use SAT to enumerate the inputs on which the
    locked circuit under K' disagrees with the oracle, and patch each with
    bypass circuitry (an input comparator whose hit flips the affected
    outputs).  Against point-function defences (SARLock, Anti-SAT) the
    disagreement set is tiny, so the patched circuit is functionally
    correct at trivial cost; against high-corruption locking the set is
    astronomically large and the attack collapses — one more reason the
    paper pairs OraP with weighted locking. *)

module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Gate = Orap_netlist.Gate

type result = {
  outcome : N.t Budget.outcome;  (** the patched circuit, when viable *)
  key_used : bool array;
  patches : (bool array * bool array) list;
      (** (input pattern, output correction mask) — one comparator each *)
}

(** Overhead of the bypass circuitry in 2-input-gate equivalents: an
    n-input comparator (n XNORs + AND tree) per patch plus one XOR per
    corrected output bit. *)
let patch_overhead (locked : Locked.t) (r : result) : int =
  let n = locked.Locked.num_regular_inputs in
  List.fold_left
    (fun acc (_, mask) ->
      let flips = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
      acc + (2 * n) - 1 + flips)
    0 r.patches

(* Attacker-knowledge-only disagreement discovery (as in [12]): two wrong
   keys K1, K2 disagree exactly on the union of their "trap" inputs (for
   point-function locking, one or two patterns).  Enumerate those inputs
   by SAT, query the oracle there, and record the corrections K1 needs.
   High-corruption locking makes the disagreement set explode past the
   enumeration budget, which is how the attack fails. *)
let find_disagreements (locked : Locked.t) (oracle : Oracle.t) key key2 ~clock =
  let m = Miter.create locked ~copies:2 in
  let solver = m.Miter.solver in
  let fix kv bits =
    Array.iter2
      (fun v b ->
        ignore (Solver.add_clause solver [ (if b then Lit.pos v else Lit.neg v) ]))
      kv bits
  in
  fix m.Miter.keys.(0) key;
  fix m.Miter.keys.(1) key2;
  Miter.outputs_differ m 0 1;
  (* enumerate disagreeing inputs until none is left or something stops
     the attack; returns the patches and the stop *)
  let rec enumerate iters patches =
    let stop o = (List.rev patches, Some o) in
    match Budget.check_iteration clock iters with
    | Some r -> stop (Budget.Exhausted r)
    | None -> (
      match Budget.solve clock ~assumptions:[| m.Miter.activate |] solver with
      | Error r -> stop (Budget.Exhausted r)
      | Ok Budget.Unsat -> (List.rev patches, None)
      | Ok Budget.Sat -> (
        let x = Miter.dip m in
        (* the attacker checks x against the real oracle *)
        match Budget.query oracle x with
        | Error msg -> stop (Budget.Oracle_refused msg)
        | Ok y_oracle ->
          let y_wrong = Locked.eval locked ~key ~inputs:x in
          let mask = Array.map2 (fun a b -> a <> b) y_wrong y_oracle in
          (* block this input *)
          ignore
            (Solver.add_clause solver
               (Array.to_list
                  (Array.mapi
                     (fun i v -> if x.(i) then Lit.neg v else Lit.pos v)
                     m.Miter.x_vars)));
          enumerate (iters + 1)
            (if Array.exists Fun.id mask then (x, mask) :: patches else patches)))
  in
  enumerate 0 []

(* patch the keyed netlist with comparators *)
let build_patched (locked : Locked.t) key patches : N.t =
  let nl = locked.Locked.netlist in
  let nri = locked.Locked.num_regular_inputs in
  let b = N.Builder.create ~size_hint:(N.num_nodes nl) () in
  let map = Array.make (N.num_nodes nl) (-1) in
  let inputs = N.inputs nl in
  (* regular inputs stay inputs; key inputs become constants at K' *)
  Array.iteri
    (fun pos id ->
      if pos < nri then map.(id) <- N.Builder.add_input b
      else
        map.(id) <-
          N.Builder.add_node b
            (if key.(pos - nri) then Gate.Const1 else Gate.Const0)
            [||])
    inputs;
  ignore (N.copy_into ~map_inputs:false b nl map);
  (* hit_j = (x == pattern_j) *)
  let hits =
    List.map
      (fun (pattern, mask) ->
        let bits =
          Array.mapi
            (fun pos id ->
              if pattern.(pos) then map.(id)
              else N.Builder.add_node b Gate.Not [| map.(id) |])
            (Array.sub inputs 0 nri)
        in
        (N.Builder.add_node b Gate.And bits, mask))
      patches
  in
  Array.iteri
    (fun j o ->
      let flips =
        List.filter_map
          (fun (hit, mask) -> if mask.(j) then Some hit else None)
          hits
      in
      match flips with
      | [] -> N.Builder.mark_output b map.(o)
      | _ ->
        let any =
          match flips with
          | [ one ] -> one
          | _ -> N.Builder.add_node b Gate.Or (Array.of_list flips)
        in
        N.Builder.mark_output b (N.Builder.add_node b Gate.Xor [| map.(o); any |]))
    (N.outputs nl);
  N.Builder.finish b

(** Run the attack.  The budget's iteration cap bounds the number of
    disagreeing inputs the attacker is willing to enumerate (the attack is
    only viable when the disagreement set is tiny). *)
let run ?(budget = { Budget.default with Budget.max_iterations = 32 })
    ?max_patches ?(seed = 97) (locked : Locked.t) (oracle : Oracle.t) : result =
  let budget =
    match max_patches with
    | Some n -> { budget with Budget.max_iterations = n }
    | None -> budget
  in
  let clock = Budget.start budget in
  let rng = Orap_sim.Prng.create seed in
  let ksz = Locked.key_size locked in
  let key = Orap_sim.Prng.bool_array rng ksz in
  let key2 = Orap_sim.Prng.bool_array rng ksz in
  let key2 = if key2 = key then Array.mapi (fun i b -> if i = 0 then not b else b) key2 else key2 in
  let patches, stopped = find_disagreements locked oracle key key2 ~clock in
  let outcome =
    match stopped with
    | Some o -> o
    | None -> Budget.Approximate (build_patched locked key patches, 0.0)
  in
  { outcome; key_used = key; patches }
