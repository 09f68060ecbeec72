(** Seeded synthetic combinational benchmark generator.

    Real ISCAS'89/ITC'99 netlists are not distributable inside this
    container, so the Table-I/II experiments run on synthetic circuits whose
    *scale* — primary-input count, primary-output count and gate count —
    matches each benchmark's combinational core (see DESIGN.md).  A genuine
    [.bench] file can be dropped in via {!Orap_netlist.Bench_format} instead.

    Generation sketch: gates are appended with locality-biased fanin
    selection (recent nodes are preferred, occasionally long-range), which
    yields logic depth and reconvergence comparable to synthesised designs;
    dangling sinks are folded together until the primary-output budget is
    met. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng

type spec = {
  seed : int;
  num_inputs : int;
  num_outputs : int;
  num_gates : int;  (** target count of non-inverter gates *)
}

(* gate-kind mix typical of technology-independent synthesised logic *)
let pick_kind rng =
  match Prng.int rng 100 with
  | x when x < 30 -> Gate.And
  | x when x < 55 -> Gate.Nand
  | x when x < 70 -> Gate.Or
  | x when x < 82 -> Gate.Nor
  | x when x < 90 -> Gate.Xor
  | x when x < 94 -> Gate.Xnor
  | _ -> Gate.Not

let generate (s : spec) : N.t =
  if s.num_inputs < 2 || s.num_outputs < 1 || s.num_gates < 1 then
    invalid_arg "Benchgen.generate";
  let rng = Prng.create s.seed in
  let b = N.Builder.create ~size_hint:(s.num_inputs + s.num_gates + 8) () in
  let pis =
    Array.init s.num_inputs (fun i ->
        N.Builder.add_input ~name:(Printf.sprintf "pi%d" i) b)
  in
  ignore pis;
  (* [unused] tracks nodes with no reader yet, so sink count stays low *)
  let unused : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let mark_new id = Hashtbl.replace unused id () in
  let consume id = Hashtbl.remove unused id in
  for i = 0 to s.num_inputs - 1 do
    mark_new i
  done;
  let gates = ref 0 in
  let pick_fanin () =
    let len = N.Builder.length b in
    (* mostly uniform attachment (keeps depth logarithmic), with a mild
       locality bias that creates the reconvergence real logic exhibits *)
    if Prng.int rng 100 < 20 then begin
      let back = 1 + Prng.int rng (min len 32) in
      len - back
    end
    else Prng.int rng len
  in
  (* stop when generated gates plus the sink-merge gates still to come reach
     the target, so the final gate count lands close to the profile *)
  let pending_merges () = max 0 (Hashtbl.length unused - s.num_outputs) in
  while !gates + pending_merges () < s.num_gates do
    let kind = pick_kind rng in
    let arity =
      match kind with
      | Gate.Not -> 1
      | Gate.Xor | Gate.Xnor -> 2
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        if Prng.int rng 5 = 0 then 3 else 2
      | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Mux -> 2
    in
    let fan = Array.init arity (fun _ -> pick_fanin ()) in
    (* avoid x op x degeneracies for 2-input gates *)
    if arity = 2 && fan.(0) = fan.(1) then
      fan.(1) <- (fan.(0) + 1) mod N.Builder.length b;
    let id = N.Builder.add_node b kind fan in
    Array.iter consume fan;
    mark_new id;
    if not (Gate.is_inverter_like kind) then incr gates
  done;
  (* fold excess sinks with a balanced XOR forest: every pass pairs up
     adjacent sinks, so the extra depth is logarithmic *)
  let sinks () =
    Hashtbl.fold (fun id () acc -> id :: acc) unused [] |> List.sort compare
  in
  let rec fold_down s_list =
    let n = List.length s_list in
    if n > s.num_outputs then begin
      let excess = n - s.num_outputs in
      let pairs = min excess (n / 2) in
      let rec pair k = function
        | a :: c :: rest when k > 0 ->
          let id = N.Builder.add_node b Gate.Xor [| a; c |] in
          consume a;
          consume c;
          mark_new id;
          id :: pair (k - 1) rest
        | rest -> rest
      in
      fold_down (pair pairs s_list)
    end
  in
  fold_down (sinks ());
  let s_list = sinks () in
  List.iter (N.Builder.mark_output b) s_list;
  (* top up with internal nodes if the sink count fell short *)
  let missing = s.num_outputs - List.length s_list in
  if missing > 0 then begin
    let len = N.Builder.length b in
    for _ = 1 to missing do
      N.Builder.mark_output b (s.num_inputs + Prng.int rng (len - s.num_inputs))
    done
  end;
  N.Builder.finish b

(** Per-circuit profile of the paper's Table I. *)
type profile = {
  name : string;
  inputs : int;
  outputs : int;
  gates : int;
  lfsr_size : int;  (** key size = LFSR length, Table I column 4 *)
  ctrl_inputs : int;  (** weighted-locking control-gate width, column 5 *)
}

(* PI counts are the benchmarks' combinational-core input counts
   (primary inputs + flip-flop outputs); gate/output counts are Table I's. *)
let table1_profiles =
  [
    { name = "s38417"; inputs = 1664; outputs = 1742; gates = 8709; lfsr_size = 256; ctrl_inputs = 3 };
    { name = "s38584"; inputs = 1464; outputs = 1730; gates = 11448; lfsr_size = 186; ctrl_inputs = 3 };
    { name = "b17"; inputs = 1452; outputs = 1512; gates = 29267; lfsr_size = 256; ctrl_inputs = 3 };
    { name = "b18"; inputs = 3357; outputs = 3343; gates = 97569; lfsr_size = 97; ctrl_inputs = 5 };
    { name = "b19"; inputs = 6666; outputs = 6672; gates = 196855; lfsr_size = 208; ctrl_inputs = 5 };
    { name = "b20"; inputs = 522; outputs = 512; gates = 17648; lfsr_size = 236; ctrl_inputs = 3 };
    { name = "b21"; inputs = 522; outputs = 512; gates = 17972; lfsr_size = 229; ctrl_inputs = 3 };
    { name = "b22"; inputs = 767; outputs = 757; gates = 26195; lfsr_size = 243; ctrl_inputs = 3 };
  ]

let find_profile name =
  List.find_opt (fun p -> p.name = name) table1_profiles

let of_profile (p : profile) : N.t =
  generate
    {
      seed = Hashtbl.hash p.name;
      num_inputs = p.inputs;
      num_outputs = p.outputs;
      num_gates = p.gates;
    }

(** Scaled-down profile for quick runs: divides gates/IO by [factor],
    keeping at least a workable minimum. *)
let scale ~factor (p : profile) : profile =
  {
    p with
    name = Printf.sprintf "%s/%d" p.name factor;
    inputs = max 8 (p.inputs / factor);
    outputs = max 4 (p.outputs / factor);
    gates = max 32 (p.gates / factor);
    lfsr_size = max 16 (p.lfsr_size / min factor 4);
  }
