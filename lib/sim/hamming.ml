(** Output-corruption measurement: average Hamming distance between the
    output vectors of two circuits over shared pseudorandom input patterns.

    Each side is a netlist plus the constant bits of its trailing inputs
    (e.g. a key); its leading inputs receive the signals of a pattern stream
    common to both sides, so a primary input gets the same stimulus on
    both. *)

module N = Orap_netlist.Netlist

(* the input words of a side: the shared words, then its constant bits *)
let fill_inputs (consts : bool array) (shared : int64 array) (inputs : int64 array) =
  let free = Array.length inputs - Array.length consts in
  Array.blit shared 0 inputs 0 free;
  Array.iteri (fun j b -> inputs.(free + j) <- (if b then Int64.minus_one else 0L)) consts

(** Average fraction of differing output bits, in [0, 1].  [words] words of
    64 patterns each are applied. *)
let distance ?(seed = 1) ~words ((n1, k1) : N.t * bool array) ((n2, k2) : N.t * bool array) :
    float =
  let no = N.num_outputs n1 in
  if no <> N.num_outputs n2 then invalid_arg "Hamming.distance: output counts differ";
  if no = 0 then invalid_arg "Hamming.distance: no outputs";
  if words < 1 then invalid_arg "Hamming.distance: words must be positive";
  let free nl k =
    let f = N.num_inputs nl - Array.length k in
    if f < 0 then invalid_arg "Hamming.distance: more constant bits than inputs";
    f
  in
  let width = max (free n1 k1) (free n2 k2) in
  let rng = Prng.create seed in
  let shared = Array.make width 0L in
  let in1 = Array.make (N.num_inputs n1) 0L in
  let in2 = Array.make (N.num_inputs n2) 0L in
  let s1 = Sim.store n1 and s2 = Sim.store n2 in
  let o1 = N.outputs n1 and o2 = N.outputs n2 in
  let diff_bits = ref 0 in
  for _ = 1 to words do
    for j = 0 to width - 1 do
      shared.(j) <- Prng.next64 rng
    done;
    fill_inputs k1 shared in1;
    fill_inputs k2 shared in2;
    Sim.eval n1 s1 in1;
    Sim.eval n2 s2 in2;
    for k = 0 to no - 1 do
      diff_bits :=
        !diff_bits + Sim.popcount64 (Int64.logxor (Sim.word s1 o1.(k)) (Sim.word s2 o2.(k)))
    done
  done;
  float_of_int !diff_bits /. float_of_int (words * 64 * no)
