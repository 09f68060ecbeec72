(** SARLock [7]: SAT-attack-resistant point-function locking.  A comparator
    flips one primary output exactly when the applied inputs equal the key
    guess and the guess is wrong, so every SAT iteration rules out a single
    key — at the price of the low output corruptibility the paper
    criticises in Section IV. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng

let lock ?(seed = 29) (nl : N.t) ~key_size : Locked.t =
  let ni = N.num_inputs nl in
  let k = min key_size ni in
  if k < 1 then invalid_arg "Sarlock.lock";
  let rng = Prng.create seed in
  let correct_key = Prng.bool_array rng k in
  let flip b ~key ~inputs =
    (* match = AND_j (x_j XNOR key_j) over the first k inputs *)
    let eq_bits =
      Array.init k (fun j -> N.Builder.add_node b Gate.Xnor [| inputs.(j); key.(j) |])
    in
    let match_all = N.Builder.add_node b Gate.And eq_bits in
    (* wrong = NOT (AND_j (key_j XNOR correct_j)) — the restore comparator *)
    let right_bits =
      Array.init k (fun j ->
          if correct_key.(j) then key.(j) else N.Builder.add_node b Gate.Not [| key.(j) |])
    in
    let wrong = N.Builder.add_node b Gate.Nand right_bits in
    N.Builder.add_node b Gate.And [| match_all; wrong |]
  in
  Locked.make ~technique:(Printf.sprintf "sarlock(k=%d)" k) ~correct_key ~flip nl
