(** Common representation of a locked combinational circuit.

    The locked netlist's inputs are the original primary inputs followed by
    the key inputs; [correct_key.(j)] is the value that must drive key input
    [j] for the circuit to be functionally equivalent to the original. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Hamming = Orap_sim.Hamming

type t = {
  original : N.t;
  netlist : N.t;
  num_regular_inputs : int;
  correct_key : bool array;
  technique : string;
}

let key_size t = Array.length t.correct_key

let key_input_positions t =
  Array.init (key_size t) (fun j -> t.num_regular_inputs + j)

(** The one builder of the layout: regular inputs, then [key<j>], then the
    copy of [nl] with [splice] applied to each logic node's image, then the
    [flip] signal XORed into output 0. *)
let make ~technique ~correct_key ?splice ?flip (nl : N.t) : t =
  let ks = Array.length correct_key in
  let b = N.Builder.create ~size_hint:(N.num_nodes nl + (4 * ks)) () in
  let map = Array.make (N.num_nodes nl) (-1) in
  Array.iter (fun id -> map.(id) <- N.Builder.add_input b) (N.inputs nl);
  let key =
    Array.init ks (fun j -> N.Builder.add_input ~name:(Printf.sprintf "key%d" j) b)
  in
  let node = Option.map (fun f i copy -> f b ~key i (copy ())) splice in
  ignore (N.copy_into ~map_inputs:false ?node b nl map);
  let flip =
    Option.map
      (fun f -> f b ~key ~inputs:(Array.map (fun id -> map.(id)) (N.inputs nl)))
      flip
  in
  Array.iteri
    (fun idx o ->
      N.Builder.mark_output b
        (match flip with
        | Some y when idx = 0 -> N.Builder.add_node b Gate.Xor [| map.(o); y |]
        | Some _ | None -> map.(o)))
    (N.outputs nl);
  {
    original = nl;
    netlist = N.Builder.finish b;
    num_regular_inputs = N.num_inputs nl;
    correct_key;
    technique;
  }

(* output HD fraction of the circuit under [key] vs. the original: each
   side's inputs share the pattern stream, the key inputs held at [key] *)
let distance ?seed ~words t key =
  if Array.length key <> key_size t then invalid_arg "Locked: wrong key size";
  Hamming.distance ?seed ~words (t.original, [||]) (t.netlist, key)

(** Average output Hamming distance (in percent) between the circuit under
    [key] and the original circuit, over shared random patterns. *)
let hamming_vs_original ?seed ?(words = 64) t key =
  100.0 *. distance ?seed ~words t key

(** Simulate the locked circuit on regular inputs + key. *)
let eval t ~key ~(inputs : bool array) : bool array =
  if Array.length inputs <> t.num_regular_inputs then invalid_arg "Locked.eval";
  Orap_sim.Sim.eval_bools t.netlist (Array.append inputs key)
