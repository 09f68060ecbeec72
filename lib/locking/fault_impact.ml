(** Fault-impact ranking of candidate key-gate sites, as in fault-analysis
    based locking [3] and weighted logic locking [26]: the impact of a wire
    is how many output bits flip, over random patterns, when the wire is
    inverted.  High-impact wires give key gates maximal corruption reach. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng
module Sim = Orap_sim.Sim
module Fsim = Orap_faultsim.Fsim

(** Impact scores for all internal (non-input) nodes, estimated over
    [words] random 64-pattern words; unscored nodes get 0.  The good words
    are simulated into the fault simulator's store, and each candidate's
    stem is forced to its inverted good word there
    ({!Fsim.invert_impact}). *)
let scores ?(seed = 17) ?(words = 2) ?(max_candidates = 4000) (nl : N.t) :
    int array =
  let n = N.num_nodes nl in
  let fanouts = N.fanouts nl in
  let rng = Prng.create seed in
  (* candidate sample: all logic nodes, or a random subset on big circuits *)
  let logic_nodes =
    List.init n (fun i -> i)
    |> List.filter (fun i ->
           match N.kind nl i with
           | Gate.Input | Gate.Const0 | Gate.Const1 -> false
           | _ -> Array.length fanouts.(i) > 0)
  in
  let candidates =
    let total = List.length logic_nodes in
    if total <= max_candidates then logic_nodes
    else
      List.filter (fun _ -> Prng.int rng total < max_candidates) logic_nodes
  in
  let score = Array.make n 0 in
  let ni = N.num_inputs nl in
  let input_buf = Array.make ni 0L in
  let fsim = Fsim.create nl in
  for _ = 1 to words do
    for i = 0 to ni - 1 do
      input_buf.(i) <- Prng.next64 rng
    done;
    Sim.eval nl fsim.Fsim.store input_buf;
    List.iter
      (fun node -> score.(node) <- score.(node) + Fsim.invert_impact fsim node)
      candidates
  done;
  score

(** The [count] highest-impact distinct sites, optionally avoiding
    near-critical timing paths (what yields the paper's 0% delay
    overheads): nodes with slack below [min_slack] are used only when the
    off-critical supply runs out. *)
let top_sites ?seed ?words ?max_candidates ?(avoid_critical = true)
    ?(min_slack = 3) (nl : N.t) ~count : int array =
  let score = scores ?seed ?words ?max_candidates nl in
  let slack = if avoid_critical then N.slacks nl else [||] in
  let is_critical i = avoid_critical && slack.(i) < min_slack in
  let ranked =
    List.init (N.num_nodes nl) (fun i -> i)
    |> List.filter (fun i -> score.(i) > 0)
    |> List.sort (fun a b -> compare score.(b) score.(a))
  in
  let non_critical = List.filter (fun i -> not (is_critical i)) ranked in
  let critical_ranked = List.filter is_critical ranked in
  let take k l =
    let rec go k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: go (k - 1) rest
    in
    go k l
  in
  let picked = take count non_critical in
  let picked =
    if List.length picked < count then
      picked @ take (count - List.length picked) critical_ranked
    else picked
  in
  Array.of_list picked
