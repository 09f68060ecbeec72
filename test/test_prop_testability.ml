(** Testability-layer properties: the event-driven parallel fault
    simulator and its fault dropping against forced-value resimulation,
    PODEM's generated vectors against the fault simulator — three
    independent implementations of "does this pattern detect this
    fault?" — dropping by fanout-free region against the per-fault
    injection engine of [Fsim_ref], and the trail-undo, region-restricted
    PODEM engine against the re-implying, whole-circuit reference engine
    of [Podem_ref]. *)

open Util
module Gate = Orap_netlist.Gate
module Bench_format = Orap_netlist.Bench_format
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim
module Podem = Orap_atpg.Podem
module Scoap = Orap_atpg.Scoap

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

(* Region dropping against per-fault injection on one netlist: every stem
   and branch fault, a quarter cleared up front, and two random 64-lane
   words; then, on the same engine and a fresh [remaining] array (a
   quarter cleared again), four single patterns, each after the caller
   cleared one fault the pattern detects (as [Atpg.run] clears PODEM's
   target); then every fault's detect mask over one more word.  The same
   [remaining] array and the same dropped counts throughout. *)
let region_drop_matches_reference nl ~aux =
  let faults = all_faults nl in
  let n = Array.length faults in
  let rng = Prng.create aux in
  let remaining = Array.init n (fun _ -> Prng.int rng 4 > 0) in
  let expected = Array.copy remaining in
  let t = Fsim.create nl and r = Fsim_ref.create nl in
  let stats = Fsim.random_simulate ~seed:aux ~engine:t ~words:2 nl faults remaining in
  let ok =
    ref
      (stats.Fsim.detected = Fsim_ref.random_simulate ~seed:aux ~words:2 nl faults expected
      && remaining = expected)
  in
  let ni = N.num_inputs nl in
  let remaining = Array.init n (fun _ -> Prng.int rng 4 > 0) in
  let expected = Array.copy remaining in
  for _ = 1 to 4 do
    let pattern = Prng.bool_array rng ni in
    let lanes = Array.map (fun b -> if b then -1L else 0L) pattern in
    let caught =
      List.filter
        (fun i -> remaining.(i) && Fsim_ref.detect_word r lanes faults.(i) <> 0L)
        (List.init n Fun.id)
    in
    if caught <> [] then begin
      let i = List.nth caught (Prng.int rng (List.length caught)) in
      remaining.(i) <- false;
      expected.(i) <- false
    end;
    let dropped = Fsim.simulate_pattern t pattern faults remaining in
    if dropped <> Fsim_ref.simulate_pattern r pattern faults expected || remaining <> expected
    then ok := false
  done;
  let words = Array.init ni (fun _ -> Prng.next64 rng) in
  Array.iter
    (fun f -> if Fsim.detect_word t words f <> Fsim_ref.detect_word r words f then ok := false)
    faults;
  !ok

(* P: on [Gen] netlists (every gate kind, fanins up to three, some read
   twice, constants) *)
let prop_region_drop_matches_reference =
  Prop.netlist_with_seed ~count:40 "region dropping matches per-fault injection"
    region_drop_matches_reference

(* P: on wide DAGs *)
let prop_region_drop_wide =
  Prop.to_alcotest ~count:40 ~name:"wide-gate region dropping matches per-fault injection"
    ~gen:(Gen.pair Gen.wide_netlist (Gen.int_range 0 0x3FFFFFFF))
    ~print:(fun (nl, aux) -> Printf.sprintf "aux %d\n%s" aux (Bench_format.print nl))
    (fun (nl, aux) -> region_drop_matches_reference nl ~aux)

(* Every region case at once, small enough to check exhaustively: a
   5-input AND and a 4-input NOR fed by constants, both sitting in the
   region of a MUX whose select (through an XOR) and data input (through
   an XNOR) are region members; a BUF read twice by an OR, which makes it
   a root; that OR an output that also feeds a second MUX's data input *)
let region_corner_netlist () =
  let b = N.Builder.create () in
  let x = Array.init 6 (fun _ -> N.Builder.add_input b) in
  let g k fan = N.Builder.add_node b k fan in
  let c1 = g Gate.Const1 [||] and c0 = g Gate.Const0 [||] in
  let n1 = g Gate.Not [| x.(0) |] in
  let a5 = g Gate.And [| n1; x.(1); x.(2); c1; x.(3) |] in
  let o4 = g Gate.Nor [| c0; x.(4); x.(5); x.(1) |] in
  let sel = g Gate.Xor [| a5; x.(2) |] in
  let d0 = g Gate.Xnor [| o4; x.(3) |] in
  let m = g Gate.Mux [| sel; d0; x.(0) |] in
  let bf = g Gate.Buf [| m |] in
  let dup = g Gate.Or [| bf; bf; x.(4) |] in
  N.Builder.mark_output b dup;
  let m2 = g Gate.Mux [| x.(5); dup; x.(2) |] in
  N.Builder.mark_output b (g Gate.Nand [| m2; x.(1); x.(3) |]);
  N.Builder.finish b

(* on the corner netlist, whose 6 inputs make one word exhaustive: every
   fault's detect mask over all 64 patterns, and dropping over that word
   and then over each pattern alone, against the reference *)
let test_region_corners () =
  let nl = region_corner_netlist () in
  let faults = all_faults nl in
  let exhaustive =
    Array.init 6 (fun i ->
        let w = ref 0L in
        for lane = 0 to 63 do
          if (lane lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L lane)
        done;
        !w)
  in
  let t = Fsim.create nl and r = Fsim_ref.create nl in
  Array.iter
    (fun f ->
      check Alcotest.int64 (Fault.to_string nl f)
        (Fsim_ref.detect_word r exhaustive f) (Fsim.detect_word t exhaustive f))
    faults;
  let remaining = Array.make (Array.length faults) true in
  let expected = Array.copy remaining in
  Sim.eval nl t.Fsim.store exhaustive;
  Sim.eval nl r.Fsim_ref.store exhaustive;
  check Alcotest.int "dropped by the exhaustive word"
    (Fsim_ref.drop_detected r faults expected) (Fsim.drop_detected t faults remaining);
  check Alcotest.(array bool) "remaining after the word" expected remaining;
  let remaining = Array.make (Array.length faults) true in
  let expected = Array.copy remaining in
  for lane = 0 to 63 do
    let pattern = lane_of exhaustive lane in
    check Alcotest.int "dropped by one pattern"
      (Fsim_ref.simulate_pattern r pattern faults expected)
      (Fsim.simulate_pattern t pattern faults remaining)
  done;
  check Alcotest.(array bool) "remaining after every pattern" expected remaining;
  check Alcotest.bool "some fault survives" true (Array.exists Fun.id remaining)

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

(* the trail-undo engine finds the same outcome, and for a test the same
   assignment, as the reference engine that re-implies on every backtrack
   — including under backtrack limits small enough to abort *)
let podem_matches_reference nl ~aux =
  let rng = Prng.create aux in
  let engine = Podem.create nl and reference = Podem_ref.create nl in
  List.for_all
    (fun fault ->
      let backtrack_limit = Gen.oneof [| 0; 1; 2; 5; 64; 2000 |] rng in
      Podem.run engine fault ~backtrack_limit
      = Podem_ref.run reference fault ~backtrack_limit)
    (differential_faults nl rng)

(* P: on [Gen] netlists *)
let prop_podem_matches_reference =
  Prop.netlist_with_seed ~count:40 "PODEM matches the reference engine"
    podem_matches_reference

(* P: on wide DAGs (1-6 fanins drawn with repetition, constants, MUX),
   which reach every table class and the spill array *)
let prop_podem_matches_reference_wide =
  Prop.to_alcotest ~count:40 ~name:"PODEM on wide gates matches the reference"
    ~gen:(Gen.pair Gen.wide_netlist (Gen.int_range 0 0x3FFFFFFF))
    ~print:(fun (nl, aux) -> Printf.sprintf "aux %d\n%s" aux (Bench_format.print nl))
    (fun (nl, aux) -> podem_matches_reference nl ~aux)

(* nodes in the fanout cone of [n] or read by it: the region PODEM
   implies for a fault at [n] *)
let region_size nl n =
  let fanouts = fanout_lists nl in
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

(* Every table class of the compiled engine on 8 inputs: each
   associative kind with one fanin (a BUF or NOT), two, three, four and
   five fanins (the spill array), each layer reading the one before; BUF,
   NOT and both constants; a MUX whose select is an input no objective
   needs, so it can stay X; and fanins read twice by a wide AND, an XOR
   and a MUX *)
let table_class_netlist () =
  let b = N.Builder.create () in
  let x = Array.init 8 (fun _ -> N.Builder.add_input b) in
  let g k fan = N.Builder.add_node b k fan in
  let kinds = Gate.[| And; Nand; Or; Nor; Xor; Xnor |] in
  let layer read = Array.mapi (fun j k -> g k (read j)) kinds in
  let xm j = x.(j mod 8) in
  let l1 = layer (fun j -> [| x.(j) |]) in
  let l2 = layer (fun j -> [| l1.(j); xm (j + 6) |]) in
  let l3 = layer (fun j -> [| l2.(j); l1.((j + 1) mod 6); xm (j + 3) |]) in
  let l4 = layer (fun j -> [| l3.(j); l2.((j + 1) mod 6); xm (j + 2); xm (j + 5) |]) in
  let l5 =
    layer (fun j -> [| l4.(j); l3.((j + 2) mod 6); l1.(j); xm (j + 4); xm (j + 7) |])
  in
  let c0 = g Gate.Const0 [||] and c1 = g Gate.Const1 [||] in
  let out k fan = N.Builder.mark_output b (g k fan) in
  out Gate.And [| l5.(0); c1; l5.(0); x.(7) |];
  out Gate.Or [| g Gate.Buf [| l5.(1) |]; c0; g Gate.Not [| l4.(4) |] |];
  out Gate.Mux [| x.(6); l5.(2); l5.(3) |];
  out Gate.Mux [| l3.(5); l5.(4); l5.(4) |];
  out Gate.Xor [| l5.(5); l2.(2); l2.(2) |];
  out Gate.Nor [| l4.(0); l4.(3); l3.(1); l2.(4); l1.(5) |];
  N.Builder.finish b

(* on the table-class netlist, every stem and branch fault of either
   value: the same outcome as the reference at a complete and at a tiny
   backtrack limit, and with the complete limit every test detecting its
   fault and every redundancy proof holding over all 256 patterns *)
let test_podem_table_classes () =
  let nl = table_class_netlist () in
  let engine = Podem.create nl and reference = Podem_ref.create nl in
  let patterns = List.init 256 (fun p -> Array.init 8 (fun i -> (p lsr i) land 1 = 1)) in
  let detects fault inp = eval_with_fault nl fault inp <> Sim.eval_bools nl inp in
  let tests = ref 0 and redundant = ref 0 in
  Array.iter
    (fun fault ->
      let name = Fault.to_string nl fault in
      List.iter
        (fun backtrack_limit ->
          check Alcotest.bool (name ^ ": same outcome as the reference") true
            (Podem.run engine fault ~backtrack_limit
            = Podem_ref.run reference fault ~backtrack_limit))
        [ 2000; 1 ];
      match Podem.run engine fault ~backtrack_limit:2000 with
      | Podem.Test assignment ->
        incr tests;
        let fill = Array.map (Option.value ~default:false) assignment in
        check Alcotest.bool (name ^ ": the test detects it") true (detects fault fill)
      | Podem.Redundant ->
        incr redundant;
        check Alcotest.bool (name ^ ": no pattern detects it") false
          (List.exists (detects fault) patterns)
      | Podem.Aborted -> Alcotest.failf "%s: aborted under a complete limit" name)
    (all_faults nl);
  check Alcotest.bool "tests and redundancy proofs both occur" true
    (!tests > 0 && !redundant > 0)

let suite =
  ( "prop_testability",
    [
      prop_fsim_matches_forced_resim;
      prop_drop_matches_reference;
      prop_region_drop_matches_reference;
      prop_region_drop_wide;
      tc "region dropping on every region case" `Quick test_region_corners;
      prop_podem_vectors_detect;
      prop_podem_redundant_means_undetectable;
      prop_podem_matches_reference;
      prop_podem_matches_reference_wide;
      prop_podem_region_matches_reference;
      tc "PODEM matches the reference after a wide undo" `Quick test_podem_wide_backtrack;
      tc "PODEM matches the reference on every table class" `Quick test_podem_table_classes;
    ] )
