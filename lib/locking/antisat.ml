(** Anti-SAT [8]: the block computes Y = g(X xor K1) AND NOT g(X xor K2)
    with g an AND tree.  With K1 = K2 = the correct key, Y is constantly 0;
    any other key pair makes Y flip the protected output on some inputs,
    while keeping the SAT attack's pruning rate near one key per
    iteration. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng

let lock ?(seed = 31) (nl : N.t) ~key_size : Locked.t =
  let ni = N.num_inputs nl in
  (* the block uses n input taps and 2n key bits *)
  let n = max 1 (min (key_size / 2) ni) in
  let rng = Prng.create seed in
  let k1 = Prng.bool_array rng n in
  (* correct key: K1 arbitrary, K2 = K1 (both halves equal) *)
  let correct_key = Array.append k1 k1 in
  let flip b ~key ~inputs =
    let xor_taps offset =
      Array.init n (fun j -> N.Builder.add_node b Gate.Xor [| inputs.(j); key.(offset + j) |])
    in
    let g1 = N.Builder.add_node b Gate.And (xor_taps 0) in
    let g2 = N.Builder.add_node b Gate.Nand (xor_taps n) in
    N.Builder.add_node b Gate.And [| g1; g2 |]
  in
  Locked.make ~technique:(Printf.sprintf "antisat(n=%d)" n) ~correct_key ~flip nl
