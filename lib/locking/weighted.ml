(** Weighted logic locking (Karousos et al. [26]), the output-corruption
    layer the paper pairs with OraP.

    The key is partitioned into groups of [ctrl_inputs] bits.  Each group
    drives a control gate — a NAND (resp. AND) over the key bits, each
    selectively inverted so the gate output is 0 (resp. 1) exactly on the
    correct sub-key — and the control output feeds an XOR (resp. XNOR) key
    gate spliced into a high-fault-impact wire.  A wrong random key
    actuates each key gate with probability 1 - 2^-w, which is what buys
    the high output corruptibility. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng

(* partition 0..key_size-1 into groups of width w (last group may be short) *)
let key_groups ~key_size ~ctrl_inputs =
  let rec go start acc =
    if start >= key_size then List.rev acc
    else begin
      let w = min ctrl_inputs (key_size - start) in
      go (start + w) (Array.init w (fun j -> start + j) :: acc)
    end
  in
  go 0 []

let num_key_gates ~key_size ~ctrl_inputs =
  List.length (key_groups ~key_size ~ctrl_inputs)

(* [ctrl_inputs] is the control-gate width w; Table I uses 3 or 5 *)
let lock ?(seed = 7) ?(avoid_critical = true) (nl : N.t) ~key_size
    ~ctrl_inputs : Locked.t =
  let rng = Prng.create seed in
  let correct_key = Prng.bool_array rng key_size in
  let groups = key_groups ~key_size ~ctrl_inputs in
  let sites =
    Fault_impact.top_sites ~seed:(seed + 1) ~avoid_critical nl
      ~count:(List.length groups)
  in
  if Array.length sites < List.length groups then
    invalid_arg "Weighted.lock: circuit too small for this key size";
  (* site -> its key group index *)
  let site_group = Hashtbl.create 32 in
  List.iteri
    (fun gi group -> Hashtbl.replace site_group sites.(gi) (gi, group))
    groups;
  let splice b ~key i img =
    match Hashtbl.find_opt site_group i with
    | None -> img
    | Some (gi, group) ->
      (* alternate XOR/NAND and XNOR/AND flavours per gate *)
      let use_xnor = gi land 1 = 1 in
      let lits =
        Array.map
          (fun kbit ->
            (* the control gate must see 1 on the correct sub-key for the
               NAND flavour (output 0 = inactive), and the same literal
               pattern works for the AND flavour (output 1 = pass) *)
            if correct_key.(kbit) then key.(kbit)
            else N.Builder.add_node b Gate.Not [| key.(kbit) |])
          group
      in
      let ctrl_kind = if use_xnor then Gate.And else Gate.Nand in
      let ctrl = N.Builder.add_node b ctrl_kind lits in
      let key_gate_kind = if use_xnor then Gate.Xnor else Gate.Xor in
      N.Builder.add_node b key_gate_kind [| img; ctrl |]
  in
  Locked.make
    ~technique:(Printf.sprintf "weighted(k=%d,w=%d)" key_size ctrl_inputs)
    ~correct_key ~splice nl
