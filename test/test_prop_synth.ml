(** Synthesis-layer properties: every optimisation pass is a functional
    no-op, checked with the SAT miter rather than random sampling, and the
    three functional representations (netlist simulation, AIG, truth
    table / ISOP) agree on the same circuits. *)

open Util
module Aig = Orap_synth.Aig
module Truth = Orap_synth.Truth
module Isop = Orap_synth.Isop
module Balance = Orap_synth.Balance
module Refactor = Orap_synth.Refactor
module Abc = Orap_synth.Abc_script
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen
module Equiv = Orap_proptest.Equiv

(* P: netlist -> AIG -> netlist is the identity on function (miter) *)
let prop_aig_roundtrip =
  Prop.netlist ~count:30 "AIG round-trip is miter-equivalent" (fun nl ->
      Equiv.check ~method_:`Sat nl (Aig.to_netlist (Aig.of_netlist nl))
      = Equiv.Equivalent)

(* P: balance preserves the function and never worsens AIG depth *)
let prop_balance =
  Prop.netlist ~count:30 "balance preserves function, depth never grows"
    (fun nl ->
      let g = Aig.of_netlist nl in
      let g' = Balance.run g in
      Aig.depth g' <= Aig.depth g
      && Equiv.check ~method_:`Sat nl (Aig.to_netlist g') = Equiv.Equivalent)

(* P: refactor preserves the function (miter) *)
let prop_refactor =
  Prop.netlist ~count:25 "refactor is miter-equivalent" (fun nl ->
      let g = Refactor.run ~cut_size:8 (Aig.of_netlist nl) in
      Equiv.check ~method_:`Sat nl (Aig.to_netlist g) = Equiv.Equivalent)

(* P: the full ABC-style pipeline preserves the function (miter) *)
let prop_pipeline =
  Prop.netlist ~count:15 "abc pipeline is miter-equivalent" (fun nl ->
      Equiv.check ~method_:`Sat nl (Aig.to_netlist (Abc.optimize nl))
      = Equiv.Equivalent)

(* the single-output cone of output [j], same input interface *)
let cone_of_output nl j =
  let b = N.Builder.create () in
  let map = N.copy_into b nl (Array.make (N.num_nodes nl) (-1)) in
  N.Builder.mark_output b map.((N.outputs nl).(j));
  N.Builder.finish b

(* exhaustive truth table of a single-output netlist *)
let truth_of_netlist nl =
  let ni = N.num_inputs nl in
  let t = Truth.zero ni in
  for p = 0 to (1 lsl ni) - 1 do
    let inp = Array.init ni (fun i -> (p lsr i) land 1 = 1) in
    if (Sim.eval_bools nl inp).(0) then
      t.Truth.words.(p lsr 6) <-
        Int64.logor t.Truth.words.(p lsr 6)
          (Int64.shift_left 1L (p land 63))
  done;
  t

(* SOP netlist over the same inputs from an ISOP cube cover *)
let netlist_of_cubes ni cubes =
  let b = N.Builder.create () in
  let pis = Array.init ni (fun _ -> N.Builder.add_input b) in
  let lit v negated =
    if negated then N.Builder.add_node b Gate.Not [| pis.(v) |] else pis.(v)
  in
  let cube_node c =
    let lits = ref [] in
    for v = ni - 1 downto 0 do
      if (c.Isop.pos lsr v) land 1 = 1 then lits := lit v false :: !lits;
      if (c.Isop.neg lsr v) land 1 = 1 then lits := lit v true :: !lits
    done;
    match !lits with
    | [] -> N.Builder.add_node b Gate.Const1 [||]
    | [ one ] -> one
    | several -> N.Builder.add_node b Gate.And (Array.of_list several)
  in
  let out =
    match List.map cube_node cubes with
    | [] -> N.Builder.add_node b Gate.Const0 [||]
    | [ one ] -> one
    | several -> N.Builder.add_node b Gate.Or (Array.of_list several)
  in
  N.Builder.mark_output b out;
  N.Builder.finish b

(* P: sim, AIG and truth/ISOP agree — the truth table extracted by
   simulation, rebuilt as an ISOP SOP netlist, is miter-equivalent to the
   original output cone, and the AIG round-trip of the cone has the same
   truth table *)
let prop_representations_agree =
  Prop.netlist ~count:25 ~params:Gen.tiny_params
    "sim / AIG / truth+ISOP representations agree" (fun nl ->
      let cone = cone_of_output nl 0 in
      let t = truth_of_netlist cone in
      let via_aig = truth_of_netlist (Aig.to_netlist (Aig.of_netlist cone)) in
      let sop = netlist_of_cubes (N.num_inputs cone) (Isop.compute t) in
      Truth.equal t via_aig
      && Equiv.check ~method_:`Sat cone sop = Equiv.Equivalent)

(* truth tables over 0-10 variables: uniform random bits (full support
   almost surely), or the root of a small random AIG cone over the
   variables, whose support is often smaller than [nvars] *)
let truth_gen : Truth.t Gen.t =
 fun rng ->
  let nvars = Prng.int rng 11 in
  if Prng.bool rng then begin
    let t = Truth.zero nvars in
    Array.iteri
      (fun k _ -> t.Truth.words.(k) <- Truth.mask_last nvars (Prng.next64 rng))
      t.Truth.words;
    t
  end
  else begin
    let nodes = ref (Array.init nvars (Truth.var nvars)) in
    let lit () =
      if Array.length !nodes = 0 then Truth.ones nvars
      else
        let t = !nodes.(Prng.int rng (Array.length !nodes)) in
        if Prng.bool rng then Truth.lognot t else t
    in
    for _ = 1 to 1 + Prng.int rng 8 do
      nodes := Array.append !nodes [| Truth.logand (lit ()) (lit ()) |]
    done;
    lit ()
  end

let pp_truth t = Printf.sprintf "nvars=%d %s" t.Truth.nvars (Truth.to_hex t)

(* P: the bound the refactor skip relies on: an ISOP cover of [f] costs at
   least |support f| - 1 nodes *)
let prop_isop_cost_bound =
  Prop.to_alcotest ~count:200 ~name:"ISOP cost >= support size - 1"
    ~gen:truth_gen ~print:pp_truth (fun t ->
      Isop.cost (Isop.compute t) >= Truth.support_size t - 1)

(* P: the in-place dependence test agrees with the cofactor definition on
   every variable, and the support size counts exactly those variables *)
let prop_depends_on_cofactors =
  Prop.to_alcotest ~count:200 ~name:"depends_on = cofactors differ"
    ~gen:truth_gen ~print:pp_truth (fun t ->
      let by_cofactors =
        List.init t.Truth.nvars (fun i ->
            not (Truth.equal (Truth.cofactor0 t i) (Truth.cofactor1 t i)))
      in
      List.init t.Truth.nvars (Truth.depends_on t) = by_cofactors
      && Truth.support_size t = List.length (List.filter Fun.id by_cofactors))

let suite =
  ( "prop_synth",
    [
      prop_aig_roundtrip;
      prop_balance;
      prop_refactor;
      prop_pipeline;
      prop_representations_agree;
      prop_isop_cost_bound;
      prop_depends_on_cofactors;
    ] )
