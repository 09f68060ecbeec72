(** Random XOR/XNOR logic locking (the EPIC [2] baseline): one key bit per
    key gate, spliced at random internal wires. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng

let lock ?(seed = 13) (nl : N.t) ~key_size : Locked.t =
  let rng = Prng.create seed in
  let correct_key = Prng.bool_array rng key_size in
  (* pick distinct internal wires *)
  let logic_nodes =
    List.init (N.num_nodes nl) (fun i -> i)
    |> List.filter (fun i ->
           match N.kind nl i with
           | Gate.Input | Gate.Const0 | Gate.Const1 -> false
           | _ -> true)
  in
  if List.length logic_nodes < key_size then
    invalid_arg "Random_ll.lock: circuit too small";
  let arr = Array.of_list logic_nodes in
  (* Fisher-Yates prefix shuffle *)
  let n = Array.length arr in
  for i = 0 to min (key_size - 1) (n - 2) do
    let j = i + Prng.int rng (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  let site_key = Hashtbl.create 32 in
  for j = 0 to key_size - 1 do
    Hashtbl.replace site_key arr.(j) j
  done;
  (* XOR gate passes the wire when the key bit is 0, XNOR when 1 *)
  let splice b ~key i img =
    match Hashtbl.find_opt site_key i with
    | None -> img
    | Some j ->
      let kind = if correct_key.(j) then Gate.Xnor else Gate.Xor in
      N.Builder.add_node b kind [| img; key.(j) |]
  in
  Locked.make ~technique:(Printf.sprintf "random(k=%d)" key_size) ~correct_key ~splice nl
