(** Output-corruption measurement: average Hamming distance between the
    output vectors of two circuit configurations over shared pseudorandom
    input patterns.

    A configuration is a netlist plus a binding for each of its inputs:
    either [Fixed b] (e.g. a key bit) or [Shared j], the [j]-th signal of a
    pattern stream common to both configurations (e.g. a primary input that
    must receive the same stimulus on both sides). *)

module N = Orap_netlist.Netlist

type binding = Fixed of bool | Shared of int

type config = { netlist : N.t; bindings : binding array }

let config netlist bindings =
  if Array.length bindings <> N.num_inputs netlist then
    invalid_arg "Hamming.config: one binding per input required";
  { netlist; bindings }

let shared_width (c : config) =
  Array.fold_left
    (fun acc b -> match b with Shared j -> max acc (j + 1) | Fixed _ -> acc)
    0 c.bindings

(* the input words of configuration [c] over the current shared words *)
let fill_inputs (c : config) (shared : int64 array) (inputs : int64 array) =
  for i = 0 to Array.length inputs - 1 do
    inputs.(i) <-
      (match c.bindings.(i) with
       | Fixed true -> Int64.minus_one
       | Fixed false -> 0L
       | Shared j -> shared.(j))
  done

(** Average fraction of differing output bits, in [0, 1].  [words] words of
    64 patterns each are applied. *)
let distance ?(seed = 1) ~words (c1 : config) (c2 : config) : float =
  let no = N.num_outputs c1.netlist in
  if no <> N.num_outputs c2.netlist then
    invalid_arg "Hamming.distance: output counts differ";
  if no = 0 then invalid_arg "Hamming.distance: no outputs";
  if words < 1 then invalid_arg "Hamming.distance: words must be positive";
  let width = max (shared_width c1) (shared_width c2) in
  let rng = Prng.create seed in
  let shared = Array.make width 0L in
  let in1 = Array.make (N.num_inputs c1.netlist) 0L in
  let in2 = Array.make (N.num_inputs c2.netlist) 0L in
  let s1 = Sim.store c1.netlist and s2 = Sim.store c2.netlist in
  let o1 = N.outputs c1.netlist and o2 = N.outputs c2.netlist in
  let diff_bits = ref 0 in
  for _ = 1 to words do
    for j = 0 to width - 1 do
      shared.(j) <- Prng.next64 rng
    done;
    fill_inputs c1 shared in1;
    fill_inputs c2 shared in2;
    Sim.eval c1.netlist s1 in1;
    Sim.eval c2.netlist s2 in2;
    for k = 0 to no - 1 do
      diff_bits :=
        !diff_bits + Sim.popcount64 (Int64.logxor (Sim.word s1 o1.(k)) (Sim.word s2 o2.(k)))
    done
  done;
  float_of_int !diff_bits /. float_of_int (words * 64 * no)
