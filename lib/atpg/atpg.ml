(** ATPG driver: the Atalanta-style flow used for Table II.

    Phase 1 drops the easy faults with random-pattern parallel fault
    simulation (the paper uses HOPE for the two largest circuits); phase 2
    runs PODEM on each survivor, fault-simulating every generated test to
    drop whatever else it catches.  Faults that PODEM exhausts are counted
    redundant; faults hitting the backtrack/decision limit are aborted.

    Each call opens one [atpg.run] span whose exit args restate the report
    and PODEM's search effort, and count the faults fault dropping injected
    ([drop_injections], both phases: faults whose site already carries the
    stuck value are skipped). *)

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
let span_args ((r : report), (s : Podem.stats), drop_injections) =
  let podem_calls = List.length r.patterns + r.redundant + r.aborted in
  Telemetry.
    [
      ("faults", Int r.total_faults);
      ("random_detected", Int r.random_detected);
      ("podem_calls", Int podem_calls);
      ("redundant", Int r.redundant);
      ("aborted", Int r.aborted);
      ("decisions", Int s.Podem.decisions);
      ("backtracks", Int s.Podem.backtracks);
      ("implications", Int s.Podem.implications);
      ("drop_injections", Int drop_injections);
    ]

let run ?(seed = 2020) ?(random_words = 8) ?(backtrack_limit = 64) (nl : N.t)
    : report =
  (fun (r, _, _) -> r) @@ Telemetry.span "atpg.run" ~exit_args:span_args @@ fun () ->
  let faults = Fault.collapsed_list nl in
  let total = Array.length faults in
  let remaining = Array.make total true in
  let stats = Fsim.random_simulate ~seed ~words:random_words nl faults remaining in
  let engine = Podem.create nl in
  let fsim = Fsim.create nl in
  let rng = Prng.create (seed + 1) in
  let redundant = ref 0 and aborted = ref 0 and det = ref stats.Fsim.detected in
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
            incr det
          end
        | Podem.Redundant -> incr redundant
        | Podem.Aborted -> incr aborted
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
    stats.Fsim.injections + fsim.Fsim.injections )

(** Reverse-order test compaction: re-fault-simulate the deterministic
    patterns latest-first and keep only those that detect a not-yet-covered
    fault.  Late ATPG patterns tend to cover many earlier faults, so the
    kept set is usually much smaller with identical coverage. *)
let compact_patterns (nl : N.t) (patterns : bool array list) : bool array list
    =
  let faults = Fault.collapsed_list nl in
  let remaining = Array.make (Array.length faults) true in
  let fsim = Fsim.create nl in
  let kept =
    List.filter
      (fun pattern -> Fsim.simulate_pattern fsim pattern faults remaining > 0)
      (List.rev patterns)
  in
  List.rev kept
