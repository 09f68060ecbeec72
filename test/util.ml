(** Shared helpers for the test suites. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng

let check = Alcotest.check
let tc = Alcotest.test_case

(** A deterministic random netlist for property tests. *)
let random_netlist ?(inputs = 8) ?(outputs = 5) ?(gates = 60) seed =
  Orap_benchgen.Benchgen.generate
    { Orap_benchgen.Benchgen.seed; num_inputs = inputs; num_outputs = outputs;
      num_gates = gates }

(** Do two netlists with the same input count agree on [n] random patterns? *)
let equivalent_on_random ?(seed = 424) ?(n = 128) a b =
  if N.num_inputs a <> N.num_inputs b then false
  else begin
    let rng = Prng.create seed in
    let ok = ref true in
    for _ = 1 to n do
      let inp = Prng.bool_array rng (N.num_inputs a) in
      if Sim.eval_bools a inp <> Sim.eval_bools b inp then ok := false
    done;
    !ok
  end

(** The locked netlist with its key inputs fixed to [key]: an ordinary
    netlist over the regular inputs, directly comparable to the original. *)
let keyed (lk : Orap_locking.Locked.t) key =
  let positions = Orap_locking.Locked.key_input_positions lk in
  Orap_proptest.Equiv.with_fixed_inputs lk.Orap_locking.Locked.netlist
    (Array.to_list (Array.mapi (fun j pos -> (pos, key.(j))) positions))

(** Does [key] unlock [lk]?  Proved by [Equiv] against the original
    netlist, independently of the attacks' own miter. *)
let unlocks (lk : Orap_locking.Locked.t) key =
  Orap_proptest.Equiv.equivalent lk.Orap_locking.Locked.original (keyed lk key)

(** A data file that [test/dune] copies beside the test executable, found
    from the executable rather than from the working directory, so the
    suite passes under [dune runtest] and [dune exec test/main.exe] alike. *)
let data_file name = Filename.concat (Filename.dirname Sys.executable_name) name

(** Naive substring test, for asserting on printed reports. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(** {1 Tiny reference circuits} *)

(** A full adder: inputs a, b, cin; outputs sum, cout. *)
let full_adder () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input ~name:"a" b in
  let x = N.Builder.add_input ~name:"b" b in
  let cin = N.Builder.add_input ~name:"cin" b in
  let s1 = N.Builder.add_node ~name:"s1" b Gate.Xor [| a; x |] in
  let sum = N.Builder.add_node ~name:"sum" b Gate.Xor [| s1; cin |] in
  let c1 = N.Builder.add_node b Gate.And [| a; x |] in
  let c2 = N.Builder.add_node b Gate.And [| s1; cin |] in
  let cout = N.Builder.add_node ~name:"cout" b Gate.Or [| c1; c2 |] in
  N.Builder.mark_output b sum;
  N.Builder.mark_output b cout;
  N.Builder.finish b

(** A linear chain of [width]-less gates: inputs folded left through [kind]. *)
let chain_circuit ?(kind = Gate.And) n_inputs =
  let b = N.Builder.create () in
  let pis = Array.init n_inputs (fun _ -> N.Builder.add_input b) in
  let acc = ref pis.(0) in
  for i = 1 to n_inputs - 1 do
    acc := N.Builder.add_node b kind [| !acc; pis.(i) |]
  done;
  N.Builder.mark_output b !acc;
  N.Builder.finish b

(** {1 Structural and fault-model references} *)

(** Structural equality by name: same inputs/outputs in order, and every
    named node computes the same gate over the same (named) fanins. *)
let netlists_structurally_equal a b =
  let names t arr = Array.map (N.node_name t) arr in
  names a (N.inputs a) = names b (N.inputs b)
  && names a (N.outputs a) = names b (N.outputs b)
  && N.num_nodes a = N.num_nodes b
  &&
  let ok = ref true in
  for i = 0 to N.num_nodes a - 1 do
    let name = N.node_name a i in
    match N.find b name with
    | None -> ok := false
    | Some j ->
      if N.kind a i <> N.kind b j then ok := false;
      let fa = Array.map (N.node_name a) (N.fanins a i) in
      let fb = Array.map (N.node_name b) (N.fanins b j) in
      if fa <> fb then ok := false
  done;
  !ok

(** Reference reader lists, the transpose of the fanins: [fanout_lists
    nl].(i) holds the ids of the nodes that read node [i], ascending, a
    reader once per fanin position that reads [i]. *)
let fanout_lists nl =
  let acc = Array.make (N.num_nodes nl) [] in
  for i = N.num_nodes nl - 1 downto 0 do
    Array.iter (fun f -> acc.(f) <- i :: acc.(f)) (N.fanins nl i)
  done;
  Array.map Array.of_list acc

(** Reference single-pattern gate evaluation over [bool]s, written
    independently of the 64-lane word simulator. *)
let eval_gate_bool kind (ops : bool array) =
  let all = Array.for_all Fun.id ops and any = Array.exists Fun.id ops in
  let parity = Array.fold_left ( <> ) false ops in
  match kind with
  | Gate.Input -> invalid_arg "eval_gate_bool: Input has no evaluation"
  | Gate.Const0 -> false
  | Gate.Const1 -> true
  | Gate.Buf -> ops.(0)
  | Gate.Not -> not ops.(0)
  | Gate.And -> all
  | Gate.Nand -> not all
  | Gate.Or -> any
  | Gate.Nor -> not any
  | Gate.Xor -> parity
  | Gate.Xnor -> not parity
  | Gate.Mux -> if ops.(0) then ops.(2) else ops.(1)

(** Reference single-pattern simulation: the value of every node under the
    input assignment [inp] (by input position), with the single stuck-at
    [fault] forced in when given. *)
let eval_nodes ?fault nl inp =
  let module Fault = Orap_faultsim.Fault in
  let forced_branch i p =
    match fault with
    | Some { Fault.site = Fault.Input (fn, fp); stuck } when fn = i && fp = p ->
      Some stuck
    | Some _ | None -> None
  in
  let n = N.num_nodes nl in
  let values = Array.make n false in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let v =
      match N.kind nl i with
      | Gate.Input ->
        let v = inp.(!pos) in
        incr pos;
        v
      | k ->
        eval_gate_bool k
          (Array.mapi
             (fun p f -> Option.value (forced_branch i p) ~default:values.(f))
             (N.fanins nl i))
    in
    values.(i) <-
      (match fault with
       | Some { Fault.site = Fault.Output fn; stuck } when fn = i -> stuck
       | Some _ | None -> v)
  done;
  values

(** Reference fault simulation: the outputs of full-circuit evaluation with
    the single stuck-at fault forced in, one pattern at a time. *)
let eval_with_fault nl fault inp =
  let values = eval_nodes ~fault nl inp in
  Array.map (fun o -> values.(o)) (N.outputs nl)

(** Lane [lane] of every word in [words], as a pattern. *)
let lane_of words lane =
  Array.map (fun w -> Int64.logand (Int64.shift_right_logical w lane) 1L <> 0L) words
