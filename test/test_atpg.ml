open Util
module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Five = Orap_atpg.Five
module Scoap = Orap_atpg.Scoap
module Podem = Orap_atpg.Podem
module Atpg = Orap_atpg.Atpg
module Fault = Orap_faultsim.Fault
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng
module Fsim = Orap_faultsim.Fsim
module Telemetry = Orap_telemetry.Telemetry
module Table2 = Orap_experiments.Table2
module Benchgen = Orap_benchgen.Benchgen
module Runner = Orap_runner.Runner
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen

(* --- five-valued algebra --- *)

let test_five_and_table () =
  let open Five in
  check Alcotest.bool "D & 1 = D" true (v_and D T = D);
  check Alcotest.bool "D & 0 = 0" true (v_and D F = F);
  check Alcotest.bool "D & D' = 0" true (v_and D Db = F);
  check Alcotest.bool "D & D = D" true (v_and D D = D);
  check Alcotest.bool "D & X = X" true (v_and D X = X);
  check Alcotest.bool "0 & X = 0" true (v_and F X = F)

let test_five_or_xor_not () =
  let open Five in
  check Alcotest.bool "D | D' = 1" true (v_or D Db = T);
  check Alcotest.bool "D | 0 = D" true (v_or D F = D);
  check Alcotest.bool "1 | X = 1" true (v_or T X = T);
  check Alcotest.bool "D ^ 1 = D'" true (v_xor D T = Db);
  check Alcotest.bool "D ^ D = 0" true (v_xor D D = F);
  check Alcotest.bool "~D = D'" true (v_not D = Db);
  check Alcotest.bool "~X = X" true (v_not X = X)

let test_five_faulted () =
  let open Five in
  check Alcotest.bool "good 1, sa0 -> D" true (faulted T ~stuck:false = D);
  check Alcotest.bool "good 0, sa1 -> D'" true (faulted F ~stuck:true = Db);
  check Alcotest.bool "good 0, sa0 -> 0" true (faulted F ~stuck:false = F);
  check Alcotest.bool "good X -> X" true (faulted X ~stuck:false = X)

let test_five_gate_eval () =
  let open Five in
  check Alcotest.bool "mux sel D" true
    (eval_gate Gate.Mux [| D; F; T |] = D);
  check Alcotest.bool "nand D 1" true (eval_gate Gate.Nand [| D; T |] = Db);
  check Alcotest.bool "xor3" true (eval_gate Gate.Xor [| T; T; D |] = D)

(* --- SCOAP --- *)

let test_scoap_basics () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let c = N.Builder.add_input b in
  let g = N.Builder.add_node b Gate.And [| a; c |] in
  N.Builder.mark_output b g;
  let nl = N.Builder.finish b in
  let s = Scoap.compute nl in
  check Alcotest.int "PI cc0" 1 s.Scoap.cc0.(a);
  check Alcotest.int "AND cc1 = sum + 1" 3 s.Scoap.cc1.(g);
  check Alcotest.int "AND cc0 = min + 1" 2 s.Scoap.cc0.(g);
  check Alcotest.int "output distance" 0 s.Scoap.dist_po.(g);
  check Alcotest.int "input distance" 1 s.Scoap.dist_po.(a)

(* --- PODEM vs brute force --- *)

let brute_detectable nl fault =
  let ni = N.num_inputs nl in
  let found = ref false in
  for m = 0 to (1 lsl ni) - 1 do
    if not !found then begin
      let inp = Array.init ni (fun i -> (m lsr i) land 1 = 1) in
      if eval_with_fault nl fault inp <> Sim.eval_bools nl inp then found := true
    end
  done;
  !found

let prop_podem_complete_and_sound =
  Prop.to_alcotest ~count:12 ~name:"PODEM agrees with brute-force detectability"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:9 ~outputs:5 ~gates:60 seed in
      let faults = Fault.collapsed_list nl in
      let engine = Podem.create nl in
      let ok = ref true in
      Array.iteri
        (fun i fault ->
          if i mod 4 = 0 then begin
            let brute = brute_detectable nl fault in
            match Podem.run engine fault ~backtrack_limit:2000 with
            | Podem.Test _ -> if not brute then ok := false
            | Podem.Redundant -> if brute then ok := false
            | Podem.Aborted -> () (* inconclusive is acceptable *)
          end)
        faults;
      !ok)

let prop_podem_tests_detect =
  Prop.to_alcotest ~count:12 ~name:"PODEM tests actually detect their faults"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:9 ~outputs:5 ~gates:60 seed in
      let faults = Fault.collapsed_list nl in
      let engine = Podem.create nl in
      let fsim = Orap_faultsim.Fsim.create nl in
      let ok = ref true in
      Array.iteri
        (fun i fault ->
          if i mod 5 = 0 then begin
            match Podem.run engine fault ~backtrack_limit:2000 with
            | Podem.Test assignment ->
              (* fill X with 0 and confirm detection by fault simulation *)
              let pattern =
                Array.map (function Some b -> b | None -> false) assignment
              in
              let words =
                Array.map (fun b -> if b then Int64.minus_one else 0L) pattern
              in
              if
                Int64.logand (Orap_faultsim.Fsim.detect_word fsim words fault) 1L
                = 0L
              then ok := false
            | Podem.Redundant | Podem.Aborted -> ()
          end)
        faults;
      !ok)

let test_podem_redundant_circuit () =
  (* y = a & ~a = 0: the AND output s-a-0 is undetectable *)
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let c = N.Builder.add_input b in
  let na = N.Builder.add_node b Gate.Not [| a |] in
  let g = N.Builder.add_node b Gate.And [| a; na |] in
  let o = N.Builder.add_node b Gate.Or [| g; c |] in
  N.Builder.mark_output b o;
  let nl = N.Builder.finish b in
  let engine = Podem.create nl in
  (match Podem.run engine { Fault.site = Fault.Output g; stuck = false }
           ~backtrack_limit:100 with
  | Podem.Redundant -> ()
  | Podem.Test _ -> Alcotest.fail "constant-0 node s-a-0 cannot be testable"
  | Podem.Aborted -> Alcotest.fail "trivial redundancy must not abort");
  (* while s-a-1 on it is testable *)
  match Podem.run engine { Fault.site = Fault.Output g; stuck = true }
          ~backtrack_limit:100 with
  | Podem.Test _ -> ()
  | Podem.Redundant | Podem.Aborted -> Alcotest.fail "s-a-1 is testable"

let test_atpg_driver_accounting () =
  let nl = random_netlist ~inputs:12 ~outputs:8 ~gates:150 5 in
  let r = Atpg.run ~random_words:4 ~backtrack_limit:100 nl in
  check Alcotest.int "accounting" r.Atpg.total_faults
    (r.Atpg.detected + r.Atpg.redundant + r.Atpg.aborted);
  check Alcotest.bool "coverage sane" true
    (Atpg.coverage r > 50.0 && Atpg.coverage r <= 100.0);
  check Alcotest.bool "random phase found most" true
    (r.Atpg.random_detected * 2 > r.Atpg.total_faults)

let test_atpg_deterministic () =
  let nl = random_netlist ~inputs:10 ~outputs:6 ~gates:90 6 in
  let r1 = Atpg.run ~seed:9 nl and r2 = Atpg.run ~seed:9 nl in
  check Alcotest.int "same detected" r1.Atpg.detected r2.Atpg.detected;
  check Alcotest.int "same aborted" r1.Atpg.aborted r2.Atpg.aborted

let test_atpg_no_faults () =
  let b = N.Builder.create () in
  ignore (N.Builder.add_input b);
  let r = Atpg.run (N.Builder.finish b) in
  check Alcotest.int "no faults" 0 r.Atpg.total_faults;
  check (Alcotest.float 0.0) "vacuously covered" 100.0 (Atpg.coverage r)

(* the [atpg.run] spans of [f], as (arg name, int value) lists *)
let atpg_spans f =
  let sink, events = Telemetry.memory () in
  let x = Telemetry.with_sink sink f in
  ( x,
    List.filter_map
      (fun ev ->
        if ev.Telemetry.name <> "atpg.run" then None
        else
          Some
            (List.filter_map
               (function k, Telemetry.Int v -> Some (k, v) | _ -> None)
               ev.Telemetry.args))
      (events ()) )

(* replay [Atpg.run ~random_words:1]'s fault dropping (the random word,
   then each test in order) and count the remaining faults it injects,
   those whose site does not carry the stuck value in every lane, and those
   it skips; PODEM's tests always detect their fault, so the tests alone
   reproduce [remaining] *)
let replay_drop_injections nl (r : Atpg.report) =
  let faults = Fault.collapsed_list nl in
  let remaining = Array.make (Array.length faults) true in
  let injected = ref 0 and skipped = ref 0 in
  let tally activated =
    Array.iteri
      (fun i f ->
        if remaining.(i) then begin
          let site =
            match f.Fault.site with
            | Fault.Output n -> n
            | Fault.Input (n, pos) -> (N.fanins nl n).(pos)
          in
          if activated site f.Fault.stuck then incr injected else incr skipped
        end)
      faults
  in
  let rng = Prng.create 2020 in
  let words = Array.init (N.num_inputs nl) (fun _ -> Prng.next64 rng) in
  let s = Sim.store nl in
  Sim.eval nl s words;
  tally (fun n stuck -> Sim.word s n <> if stuck then -1L else 0L);
  ignore (Fsim.random_simulate ~seed:2020 ~words:1 nl faults remaining);
  let t = Fsim.create nl in
  List.iter
    (fun pattern ->
      let values = eval_nodes nl pattern in
      tally (fun n stuck -> values.(n) <> stuck);
      ignore (Fsim.simulate_pattern t pattern faults remaining))
    r.Atpg.patterns;
  (!injected, !skipped)

let test_atpg_span_restates_report () =
  let nl = random_netlist ~inputs:12 ~outputs:8 ~gates:150 5 in
  let r, spans = atpg_spans (fun () -> Atpg.run ~random_words:1 ~backtrack_limit:4 nl) in
  match spans with
  | [ args ] ->
    let arg k = List.assoc k args in
    check Alcotest.int "faults" r.Atpg.total_faults (arg "faults");
    check Alcotest.int "random_detected" r.Atpg.random_detected (arg "random_detected");
    check Alcotest.int "redundant" r.Atpg.redundant (arg "redundant");
    check Alcotest.int "aborted" r.Atpg.aborted (arg "aborted");
    check Alcotest.int "podem_calls: one per test, proof or abort"
      (List.length r.Atpg.patterns + r.Atpg.redundant + r.Atpg.aborted)
      (arg "podem_calls");
    check Alcotest.bool "PODEM ran" true (arg "podem_calls" > 0);
    check Alcotest.bool "a search step per call" true (arg "decisions" >= arg "podem_calls");
    check Alcotest.bool "search effort recorded" true
      (arg "backtracks" >= 0 && arg "implications" > 0);
    let injected, skipped = replay_drop_injections nl r in
    check Alcotest.int "drop_injections" injected (arg "drop_injections");
    check Alcotest.bool "unactivated faults skipped" true (skipped > 0)
  | _ -> Alcotest.fail "expected exactly one atpg.run span"

(* Table II's b19 cell at scale 96 and seed 2020: restricting implication
   to the fault's region must leave PODEM's search unchanged step for step
   (the decision and backtrack counts of the whole-circuit engine) while
   draining far fewer events *)
let test_podem_search_pinned () =
  let b19 = List.filter (fun p -> p.Benchgen.name = "b19") Benchgen.table1_profiles in
  let _, spans =
    atpg_spans (fun () ->
        Table2.run
          ~params:{ Table2.default_params with Table2.scale = 96 }
          ~options:{ Runner.default_options with Runner.jobs = 1 }
          ~profiles:b19 ())
  in
  let side faults =
    match List.find_opt (fun args -> List.assoc "faults" args = faults) spans with
    | Some args -> fun k -> List.assoc k args
    | None -> Alcotest.failf "no atpg.run span over %d faults" faults
  in
  (* original, then protected: faults, decisions, backtracks, and the
     implications the whole-circuit engine drained *)
  List.iter
    (fun (faults, decisions, backtracks, whole_circuit) ->
      let arg = side faults in
      check Alcotest.int "decisions" decisions (arg "decisions");
      check Alcotest.int "backtracks" backtracks (arg "backtracks");
      check Alcotest.bool "implications fell by half or more" true
        (2 * arg "implications" <= whole_circuit))
    [ (7956, 40549, 17659, 5698930); (8162, 43297, 16174, 4259257) ]

let suite =
  ( "atpg",
    [
      tc "five-valued AND" `Quick test_five_and_table;
      tc "five-valued OR/XOR/NOT" `Quick test_five_or_xor_not;
      tc "fault-site transform" `Quick test_five_faulted;
      tc "five-valued gate eval" `Quick test_five_gate_eval;
      tc "SCOAP measures" `Quick test_scoap_basics;
      prop_podem_complete_and_sound;
      prop_podem_tests_detect;
      tc "redundant fault identified" `Quick test_podem_redundant_circuit;
      tc "ATPG driver accounting" `Quick test_atpg_driver_accounting;
      tc "ATPG determinism" `Quick test_atpg_deterministic;
      tc "ATPG coverage with no faults" `Quick test_atpg_no_faults;
      tc "atpg.run span restates the report" `Quick test_atpg_span_restates_report;
      tc "PODEM search pinned on b19/96" `Quick test_podem_search_pinned;
    ] )
