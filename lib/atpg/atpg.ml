(** ATPG driver: the Atalanta-style flow used for Table II.

    Phase 1 drops the easy faults with random-pattern parallel fault
    simulation (the paper uses HOPE for the two largest circuits); phase 2
    runs PODEM on each survivor, fault-simulating every generated test to
    drop whatever else it catches.  Faults that PODEM exhausts are counted
    redundant; faults hitting the backtrack/decision limit are aborted.

    Both phases drop faults on one {!Fsim} engine, which propagates each
    fanout-free region's root at most once per pattern word.

    Each call opens one [atpg.run] span whose exit args restate the report
    and PODEM's search effort, and count the root propagations fault
    dropping ran ([drop_propagations], both phases), the tests whose
    filled-in pattern did not drop their own fault ([pessimistic_tests])
    and the aborted faults that a later test dropped ([aborted_detected]),
    which are counted in both [detected] and [aborted]. *)

module N = Orap_netlist.Netlist
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim
module Prng = Orap_sim.Prng
module Telemetry = Orap_telemetry.Telemetry

type report = {
  total_faults : int;
  detected : int;
  redundant : int;
  aborted : int;
  random_detected : int;
  patterns : bool array list;  (** deterministic tests, PI-ordered *)
}

let coverage r =
  if r.total_faults = 0 then 100.0
  else 100.0 *. float_of_int r.detected /. float_of_int r.total_faults

let redundant_plus_aborted r = r.redundant + r.aborted

(* one PODEM call per test, redundancy proof or abort *)
let span_args
    ((r : report), (s : Podem.stats), drop_propagations, pessimistic, aborted_detected) =
  let podem_calls = List.length r.patterns + r.redundant + r.aborted in
  Telemetry.
    [
      ("faults", Int r.total_faults);
      ("detected", Int r.detected);
      ("random_detected", Int r.random_detected);
      ("podem_calls", Int podem_calls);
      ("redundant", Int r.redundant);
      ("aborted", Int r.aborted);
      ("decisions", Int s.Podem.decisions);
      ("backtracks", Int s.Podem.backtracks);
      ("implications", Int s.Podem.implications);
      ("drop_propagations", Int drop_propagations);
      ("pessimistic_tests", Int pessimistic);
      ("aborted_detected", Int aborted_detected);
    ]

let run ?(seed = 2020) ?(random_words = 8) ?(backtrack_limit = 64) (nl : N.t)
    : report =
  (fun (r, _, _, _, _) -> r) @@ Telemetry.span "atpg.run" ~exit_args:span_args @@ fun () ->
  let faults = Fault.collapsed_list nl in
  let total = Array.length faults in
  let remaining = Array.make total true in
  let fsim = Fsim.create nl in
  let stats =
    Fsim.random_simulate ~seed ~engine:fsim ~words:random_words nl faults remaining
  in
  let engine = Podem.create nl in
  let rng = Prng.create (seed + 1) in
  let redundant = ref 0 and aborted = ref 0 and det = ref stats.Fsim.detected in
  let pessimistic = ref 0 and aborted_ids = ref [] in
  let patterns = ref [] in
  Array.iteri
    (fun i fault ->
      if remaining.(i) then begin
        match Podem.run engine fault ~backtrack_limit with
        | Podem.Test assignment ->
          (* random-fill the don't-cares, then drop everything it detects *)
          let pattern =
            Array.map
              (fun v -> match v with Some b -> b | None -> Prng.bool rng)
              assignment
          in
          patterns := pattern :: !patterns;
          let dropped = Fsim.simulate_pattern fsim pattern faults remaining in
          det := !det + dropped;
          (* PODEM said testable: the pattern must detect it; if simulation
             disagrees (X-filled pessimism), count it detected anyway *)
          if remaining.(i) then begin
            remaining.(i) <- false;
            incr det;
            incr pessimistic
          end
        | Podem.Redundant -> incr redundant
        | Podem.Aborted ->
          incr aborted;
          aborted_ids := i :: !aborted_ids
      end)
    faults;
  ( {
      total_faults = total;
      detected = !det;
      redundant = !redundant;
      aborted = !aborted;
      random_detected = stats.Fsim.detected;
      patterns = List.rev !patterns;
    },
    Podem.stats engine,
    fsim.Fsim.propagations,
    !pessimistic,
    List.length (List.filter (fun i -> not remaining.(i)) !aborted_ids) )
