(** Testability-layer properties: the event-driven parallel fault
    simulator and its fault dropping against forced-value resimulation,
    PODEM's generated vectors against the fault simulator — three
    independent implementations of "does this pattern detect this
    fault?" — and the trail-undo, region-restricted PODEM engine against
    the re-implying, whole-circuit reference engine of [Podem_ref]. *)

open Util
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim
module Podem = Orap_atpg.Podem
module Scoap = Orap_atpg.Scoap
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen

(* P: for random faults and random pattern words, the event-driven
   detector agrees lane-by-lane with full forced-value resimulation *)
let prop_fsim_matches_forced_resim =
  Prop.netlist_with_seed ~count:30 "fault sim agrees with forced resimulation"
    (fun nl ~aux ->
      let faults = Fault.collapsed_list nl in
      if Array.length faults = 0 then true
      else begin
        let rng = Prng.create aux in
        let t = Fsim.create nl in
        let ni = N.num_inputs nl in
        let words = Array.init ni (fun _ -> Prng.next64 rng) in
        let ok = ref true in
        for _ = 1 to 8 do
          let fault = faults.(Prng.int rng (Array.length faults)) in
          let mask = Fsim.detect_word t words fault in
          for lane = 0 to 3 do
            let inp = lane_of words lane in
            let detected_ref =
              eval_with_fault nl fault inp <> Sim.eval_bools nl inp
            in
            let detected_par =
              Int64.logand (Int64.shift_right_logical mask lane) 1L <> 0L
            in
            if detected_ref <> detected_par then ok := false
          done
        done;
        !ok
      end)

(* every single stuck-at fault of [nl]: both values on every stem and on
   every fanin branch, whether or not collapsing would keep it *)
let all_faults nl =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun site -> [ { Fault.site; stuck = false }; { Fault.site; stuck = true } ])
        (Fault.Output n :: List.init (Array.length (N.fanins nl n)) (fun p -> Fault.Input (n, p))))
    (List.init (N.num_nodes nl) Fun.id)
  |> Array.of_list

(* [remaining] after dropping every fault that one of [patterns] detects
   according to the scalar reference evaluator *)
let reference_drop nl faults remaining patterns =
  let outputs values = Array.map (fun o -> values.(o)) (N.outputs nl) in
  let goods = List.map (fun p -> outputs (eval_nodes nl p)) patterns in
  Array.mapi
    (fun i r ->
      r
      && not
           (List.exists2
              (fun p good -> eval_with_fault nl faults.(i) p <> good)
              patterns goods))
    remaining

let count_dropped before after =
  let n = ref 0 in
  Array.iteri (fun i r -> if r && not after.(i) then incr n) before;
  !n

(* P: fault dropping drops exactly the remaining faults the scalar
   reference detects, over one random word and then two single patterns on
   a reused engine.  Every stem and branch fault takes part, half of them
   stuck at the value their site carries, and a third start dropped *)
let prop_drop_matches_reference =
  Prop.netlist_with_seed ~count:25 "fault dropping matches the reference"
    (fun nl ~aux ->
      let faults = all_faults nl in
      let rng = Prng.create aux in
      let ni = N.num_inputs nl in
      let remaining = Array.init (Array.length faults) (fun _ -> Prng.int rng 3 > 0) in
      (* the word [random_simulate ~seed:aux ~words:1] draws *)
      let word_rng = Prng.create aux in
      let words = Array.init ni (fun _ -> Prng.next64 word_rng) in
      let before = Array.copy remaining in
      let stats = Fsim.random_simulate ~seed:aux ~words:1 nl faults remaining in
      let expected = reference_drop nl faults before (List.init 64 (lane_of words)) in
      let ok = ref (remaining = expected && stats.Fsim.detected = count_dropped before remaining) in
      let t = Fsim.create nl in
      for _ = 1 to 2 do
        let pattern = Prng.bool_array rng ni in
        let before = Array.copy remaining in
        let dropped = Fsim.simulate_pattern t pattern faults remaining in
        let expected = reference_drop nl faults before [ pattern ] in
        if remaining <> expected || dropped <> count_dropped before remaining then ok := false
      done;
      !ok)

(* P: every vector PODEM emits really detects its target fault, for any
   don't-care fill *)
let prop_podem_vectors_detect =
  Prop.netlist_with_seed ~count:20 "PODEM vectors detect their fault"
    (fun nl ~aux ->
      let faults = Fault.collapsed_list nl in
      if Array.length faults = 0 then true
      else begin
        let rng = Prng.create aux in
        let engine = Podem.create nl in
        let ni = N.num_inputs nl in
        let ok = ref true in
        for _ = 1 to 6 do
          let fault = faults.(Prng.int rng (Array.length faults)) in
          match Podem.run engine fault ~backtrack_limit:500 with
          | Podem.Redundant | Podem.Aborted -> ()
          | Podem.Test assignment ->
            (* two independent random fills of the don't-cares *)
            for _ = 1 to 2 do
              let inp =
                Array.init ni (fun i ->
                    match assignment.(i) with
                    | Some v -> v
                    | None -> Prng.bool rng)
              in
              if eval_with_fault nl fault inp = Sim.eval_bools nl inp then
                ok := false
            done
        done;
        !ok
      end)

(* P: a PODEM Redundant verdict means no pattern detects the fault — on
   small circuits, verify exhaustively *)
let prop_podem_redundant_means_undetectable =
  Prop.netlist_with_seed ~count:15 ~params:Gen.tiny_params
    "PODEM redundancy proofs hold exhaustively" (fun nl ~aux ->
      let faults = Fault.collapsed_list nl in
      if Array.length faults = 0 then true
      else begin
        let rng = Prng.create aux in
        let engine = Podem.create nl in
        let ni = N.num_inputs nl in
        let ok = ref true in
        for _ = 1 to 4 do
          let fault = faults.(Prng.int rng (Array.length faults)) in
          match Podem.run engine fault ~backtrack_limit:2000 with
          | Podem.Test _ | Podem.Aborted -> ()
          | Podem.Redundant ->
            for p = 0 to (1 lsl ni) - 1 do
              let inp = Array.init ni (fun i -> (p lsr i) land 1 = 1) in
              if eval_with_fault nl fault inp <> Sim.eval_bools nl inp then
                ok := false
            done
        done;
        !ok
      end)

(* PI stem faults and fanout-branch faults (the sites whose insertion
   differs from an ordinary gate output), plus a few other collapsed faults *)
let differential_faults nl rng =
  let faults = Fault.collapsed_list nl in
  let is_input = Array.make (N.num_nodes nl) false in
  Array.iter (fun i -> is_input.(i) <- true) (N.inputs nl);
  let special, other =
    List.partition
      (fun f ->
        match f.Fault.site with
        | Fault.Output n -> is_input.(n)
        | Fault.Input _ -> true)
      (Array.to_list faults)
  in
  let other = Array.of_list other in
  special
  @ List.init (min 6 (Array.length other)) (fun _ ->
        other.(Prng.int rng (Array.length other)))

(* P: the trail-undo engine finds the same outcome, and for a test the
   same assignment, as the reference engine that re-implies on every
   backtrack — including under backtrack limits small enough to abort *)
let prop_podem_matches_reference =
  Prop.netlist_with_seed ~count:40 "PODEM matches the reference engine"
    (fun nl ~aux ->
      let rng = Prng.create aux in
      let engine = Podem.create nl and reference = Podem_ref.create nl in
      List.for_all
        (fun fault ->
          let backtrack_limit = Gen.oneof [| 0; 1; 2; 5; 64; 2000 |] rng in
          Podem.run engine fault ~backtrack_limit
          = Podem_ref.run reference fault ~backtrack_limit)
        (differential_faults nl rng))

(* nodes in the fanout cone of [n] or read by it: the region PODEM
   implies for a fault at [n] *)
let region_size nl n =
  let fanouts = N.fanouts nl in
  let cone next roots =
    let mark = Array.make (N.num_nodes nl) false in
    let rec walk m =
      if not mark.(m) then begin
        mark.(m) <- true;
        Array.iter walk (next m)
      end
    in
    List.iter walk roots;
    List.filter (fun m -> mark.(m)) (List.init (N.num_nodes nl) Fun.id)
  in
  List.length (cone (N.fanins nl) (cone (Array.get fanouts) [ n ]))

(* P: on faults near an output of a multi-output netlist, whose region
   leaves out some of the circuit, the region-restricted engine finds the
   same outcome as the reference that implies every node *)
let prop_podem_region_matches_reference =
  Prop.netlist_with_seed ~count:40 "PODEM on a partial region matches the reference"
    (fun nl ~aux ->
      let rng = Prng.create aux in
      let dist = (Scoap.compute nl).Scoap.dist_po in
      let node f = match f.Fault.site with Fault.Output n | Fault.Input (n, _) -> n in
      let near =
        List.filter
          (fun f -> dist.(node f) <= 1 && region_size nl (node f) < N.num_nodes nl)
          (Array.to_list (Fault.collapsed_list nl))
      in
      let engine = Podem.create nl and reference = Podem_ref.create nl in
      List.for_all
        (fun fault ->
          let backtrack_limit = Gen.oneof [| 0; 1; 2; 5; 64; 2000 |] rng in
          Podem.run engine fault ~backtrack_limit
          = Podem_ref.run reference fault ~backtrack_limit)
        near)

(* A fault whose search grows [d_nodes] past 128 entries, undoes the
   decision that did so, and then breaks a frontier tie.  [c] = CONST1
   stuck-at-0 carries D from the start.  PODEM first sets [w] = 1 for [K]
   (the highest-id frontier gate at distance 1), which kills the [k_j]
   branches; then [x], which puts D on the [h_i] (x = 1) or the [l_i]
   (x = 0) but closes the last output either way.  Flipping [x] adds the
   [l_i] before it removes the [h_i], so the table briefly holds 143
   entries and doubles to 128 buckets.  Both values fail, [x] is undone,
   [w] flips to 0 and D reaches [k_1] and [k_2] (ids 6 and 8), whose
   outputs tie at distance 0: ids 6 and 8 fold in opposite orders over 64
   and 128 buckets, so the test sets [p_2] only if the table kept its
   history through the undo. *)
let wide_backtrack_netlist () =
  let b = N.Builder.create () in
  let input () = N.Builder.add_input b in
  let gate k fan = N.Builder.add_node b k fan in
  let w = input () in
  let x = input () in
  let ps = Array.init 2 (fun _ -> input ()) in
  let c = gate Gate.Const1 [||] in
  let nw = gate Gate.Not [| w |] in
  Array.iter
    (fun p ->
      let k = gate Gate.And [| c; nw |] in
      N.Builder.mark_output b (gate Gate.And [| k; p |]))
    ps;
  let big_k = gate Gate.And [| c; w |] in
  N.Builder.mark_output b (gate Gate.And [| big_k; gate Gate.Xor [| w; w |] |]);
  let nx = gate Gate.Not [| x |] in
  let ls = List.init 70 (fun _ -> gate Gate.And [| c; nx |]) in
  let hs = List.init 70 (fun _ -> gate Gate.And [| c; x |]) in
  let p = gate Gate.Or (Array.of_list (ls @ hs)) in
  N.Builder.mark_output b (gate Gate.And [| p; gate Gate.Xor [| x; x |] |]);
  (N.Builder.finish b, { Fault.site = Fault.Output c; stuck = false })

let test_podem_wide_backtrack () =
  let nl, fault = wide_backtrack_netlist () in
  let expected = Podem_ref.run (Podem_ref.create nl) fault ~backtrack_limit:64 in
  check Alcotest.bool "reference: w = 0, p_2 = 1" true
    (expected = Podem.Test [| Some false; None; None; Some true |]);
  check Alcotest.bool "same test as the reference" true
    (Podem.run (Podem.create nl) fault ~backtrack_limit:64 = expected)

let suite =
  ( "prop_testability",
    [
      prop_fsim_matches_forced_resim;
      prop_drop_matches_reference;
      prop_podem_vectors_detect;
      prop_podem_redundant_means_undetectable;
      prop_podem_matches_reference;
      prop_podem_region_matches_reference;
      tc "PODEM matches the reference after a wide undo" `Quick test_podem_wide_backtrack;
    ] )
