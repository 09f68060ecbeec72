(** Signal-probability-skew (SPS) analysis — the attack of Yasin et al. [9]
    that defeats Anti-SAT by locating the block's flip signal, whose
    probability of being 1 is extremely skewed.

    Given a locked netlist, signal probabilities are estimated by random
    simulation over inputs *and* key inputs; gates whose output probability
    is within [epsilon] of 0 or 1 — but not structurally constant — are
    flagged.  Anti-SAT's Y = g AND NOT g' lights up immediately; weighted
    logic locking and OraP expose no such signal (Section II-A: "neither has
    signals with high probability skew"). *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Locked = Orap_locking.Locked
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng

type finding = {
  node : int;
  probability : float;  (** estimated P(node = 1) *)
  fanout : int;
}

type report = {
  findings : finding list;  (** skewed internal signals, most skewed first *)
  max_skew : float;  (** max |P - 0.5| over internal nodes, in [0, 0.5] *)
}

(** Estimated P(=1) of every node over [words] random 64-pattern words
    (inputs and key inputs both random, as the attacker would drive them).
    Raises [Invalid_argument] when [words] < 1. *)
let signal_probabilities ?(seed = 2024) ?(words = 64) (nl : N.t) : float array =
  if words < 1 then invalid_arg "Sps.signal_probabilities: words must be positive";
  let n = N.num_nodes nl in
  let ones = Array.make n 0 in
  let rng = Prng.create seed in
  let ni = N.num_inputs nl in
  let input_buf = Array.make ni 0L in
  let store = Sim.store nl in
  for _ = 1 to words do
    for i = 0 to ni - 1 do
      input_buf.(i) <- Prng.next64 rng
    done;
    Sim.eval nl store input_buf;
    for i = 0 to n - 1 do
      ones.(i) <- ones.(i) + Sim.popcount64 (Sim.word store i)
    done
  done;
  let total = float_of_int (64 * words) in
  Array.map (fun c -> float_of_int c /. total) ones

let analyze ?(seed = 2024) ?(words = 64) ?(epsilon = 0.01) (nl : N.t) : report =
  let probs = signal_probabilities ~seed ~words nl in
  let start = (N.fanouts nl).N.start in
  let findings = ref [] in
  let max_skew = ref 0.0 in
  for i = 0 to N.num_nodes nl - 1 do
    match N.kind nl i with
    | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
    | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
    | Gate.Xor | Gate.Xnor | Gate.Mux ->
      let p = probs.(i) in
      let skew = abs_float (p -. 0.5) in
      if skew > !max_skew then max_skew := skew;
      (* skewed but not stuck: the Anti-SAT flip signal is ~never 1 but can
         be 1, so p in (0, eps] or [1-eps, 1) *)
      let fanout = start.(i + 1) - start.(i) in
      if fanout > 0 && ((p > 0.0 && p <= epsilon) || (p < 1.0 && p >= 1.0 -. epsilon)) then
        findings := { node = i; probability = p; fanout } :: !findings
  done;
  let sorted =
    List.sort
      (fun a b ->
        compare
          (abs_float (b.probability -. 0.5))
          (abs_float (a.probability -. 0.5)))
      !findings
  in
  { findings = sorted; max_skew = !max_skew }

(** Run the full SPS attack on a locked circuit: locate the most skewed
    signal and *remove* it (replace it by its skewed constant), hoping to
    strip a point-function block.  Returns the repaired netlist when a
    candidate was found. *)
let attack ?(seed = 2024) ?(words = 64) ?(epsilon = 0.01) (locked : Locked.t) :
    (N.t * finding) option =
  let nl = locked.Locked.netlist in
  let r = analyze ~seed ~words ~epsilon nl in
  match r.findings with
  | [] -> None
  | best :: _ ->
    (* rebuild with the skewed node tied to its constant *)
    let tie = if best.probability < 0.5 then Gate.Const0 else Gate.Const1 in
    let b = N.Builder.create ~size_hint:(N.num_nodes nl) () in
    let node i copy = if i = best.node then N.Builder.add_node b tie [||] else copy () in
    let map = N.copy_into ~node b nl (Array.make (N.num_nodes nl) (-1)) in
    Array.iter (fun o -> N.Builder.mark_output b map.(o)) (N.outputs nl);
    Some (N.Builder.finish b, best)
