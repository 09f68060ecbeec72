(** Edge cases, error paths and cross-cutting invariants that the
    module-focused suites do not cover. *)

open Util
module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Vec = Orap_sat.Vec
module Aig = Orap_synth.Aig
module Isop = Orap_synth.Isop
module Truth = Orap_synth.Truth
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Prng = Orap_sim.Prng
module Hamming = Orap_sim.Hamming

(* --- Vec --- *)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 42 (Vec.get v 42);
  check Alcotest.int "last" 99 (Vec.last v);
  check Alcotest.int "pop" 99 (Vec.pop v);
  Vec.remove v 0;
  check Alcotest.int "removed" 98 (Vec.length v);
  Vec.shrink v 10;
  check Alcotest.int "shrunk" 10 (Vec.length v);
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.length v)

(* --- solver degenerate clauses --- *)

let test_solver_tautology_and_dups () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  (* tautological clause is dropped, duplicate literals deduped *)
  ignore (Solver.add_clause s [ Lit.pos a; Lit.neg a ]);
  ignore (Solver.add_clause s [ Lit.pos b; Lit.pos b; Lit.pos b ]);
  (match Solver.solve s with
  | Solver.Sat -> check Alcotest.bool "b forced" true (Solver.model_value s b)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "should be SAT");
  (* adding a clause with an already-true literal is a no-op *)
  ignore (Solver.add_clause s [ Lit.pos b; Lit.pos a ]);
  check Alcotest.bool "still sat" true (Solver.solve s = Solver.Sat)

let test_solver_empty_clause () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a ]);
  ignore (Solver.add_clause s [ Lit.neg a ]);
  (* the second unit contradicts at level 0 on propagation *)
  check Alcotest.bool "unsat" true (Solver.solve s = Solver.Unsat);
  (* solver stays unsat forever *)
  check Alcotest.bool "sticky" true (Solver.solve s = Solver.Unsat)

(* --- AIG corner cases --- *)

let test_aig_const_outputs () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let na = N.Builder.add_node b Gate.Not [| a |] in
  let zero = N.Builder.add_node b Gate.And [| a; na |] in
  N.Builder.mark_output b zero;
  N.Builder.mark_output b a;
  let nl = N.Builder.finish b in
  let g = Aig.of_netlist nl in
  check Alcotest.int "a & ~a collapses" 0 (Aig.num_live_ands g);
  let back = Aig.to_netlist g in
  N.validate back;
  check Alcotest.bool "functionally zero" true
    (equivalent_on_random nl back)

let test_aig_complemented_output () =
  let b = N.Builder.create () in
  let a = N.Builder.add_input b in
  let na = N.Builder.add_node b Gate.Not [| a |] in
  N.Builder.mark_output b na;
  let nl = N.Builder.finish b in
  let back = Aig.to_netlist (Aig.of_netlist nl) in
  check Alcotest.bool "inverter-only circuit" true (equivalent_on_random nl back)

let prop_isop_to_aig_builds_function =
  Prop.to_alcotest ~count:30 ~name:"Isop.to_aig realises the cover"
    ~gen:(Gen.pair (Gen.int_range 0 10_000) (Gen.int_range 2 6))
    ~print:(fun (seed, nvars) -> Printf.sprintf "(%d, %d)" seed nvars)
    (fun (seed, nvars) ->
      let rng = Prng.create seed in
      let t = Truth.zero nvars in
      let words = t.Truth.words in
      for i = 0 to Array.length words - 1 do
        words.(i) <- Prng.next64 rng
      done;
      let f = Truth.logand t (Truth.ones nvars) in
      let cubes = Isop.compute f in
      let g = Aig.create ~num_pis:nvars in
      let leaves = Array.init nvars (fun i -> Aig.pi_lit g i) in
      let out = Isop.to_aig g leaves cubes in
      Aig.set_outputs g [| out |];
      (* compare against the truth table on all minterms *)
      let ok = ref true in
      for m = 0 to (1 lsl nvars) - 1 do
        let inputs = Array.init nvars (fun i -> (m lsr i) land 1 = 1) in
        let v = Array.make (Aig.num_nodes g) false in
        for i = 0 to nvars - 1 do
          v.(i + 1) <- inputs.(i)
        done;
        for id = nvars + 1 to Aig.num_nodes g - 1 do
          let lv l =
            let x = v.(Aig.node_of_lit l) in
            if Aig.is_compl l then not x else x
          in
          v.(id) <- lv (Aig.fanin0 g id) && lv (Aig.fanin1 g id)
        done;
        let got =
          let x = v.(Aig.node_of_lit out) in
          if Aig.is_compl out then not x else x
        in
        if got <> Truth.get f m then ok := false
      done;
      !ok)

(* refactoring with a cut the truth tables cannot hold fails up front *)
let test_refactor_cut_size_checked () =
  let aig = Aig.of_netlist (random_netlist ~inputs:6 ~outputs:3 ~gates:30 7) in
  List.iter
    (fun cut_size ->
      match Orap_synth.Refactor.run ~cut_size aig with
      | _ -> Alcotest.failf "cut_size %d accepted" cut_size
      | exception Invalid_argument msg ->
        check Alcotest.bool
          (Printf.sprintf "cut_size %d named in %S" cut_size msg)
          true (contains msg "cut_size"))
    [ -1; 0; 1; Truth.max_vars + 1 ];
  List.iter
    (fun cut_size ->
      let g = Orap_synth.Refactor.run ~cut_size aig in
      check Alcotest.bool
        (Printf.sprintf "cut_size %d keeps the function" cut_size)
        true
        (equivalent_on_random (Aig.to_netlist aig) (Aig.to_netlist g)))
    [ 2; Truth.max_vars ]

(* --- chip protocol errors --- *)

let chip_fixture () =
  let nl = random_netlist ~inputs:20 ~outputs:16 ~gates:150 3 in
  let lk = Orap_locking.Weighted.lock nl ~key_size:12 ~ctrl_inputs:3 in
  let design =
    Orap.protect ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:8 ()) lk
  in
  Chip.create design

let test_chip_mode_errors () =
  let chip = chip_fixture () in
  Alcotest.check_raises "capture outside scan mode"
    (Invalid_argument "Chip.capture: not in scan mode") (fun () ->
      ignore (Chip.capture chip ~ext_inputs:(Array.make 12 false)));
  Chip.set_scan_enable chip true;
  Alcotest.check_raises "functional cycle in scan mode"
    (Invalid_argument "Chip.functional_cycle: scan mode") (fun () ->
      ignore (Chip.functional_cycle chip ~ext_inputs:(Array.make 12 false)))

let test_oracle_width_error () =
  let chip = chip_fixture () in
  Chip.unlock chip;
  let o = Oracle.scan_chip chip in
  let d = Chip.design chip in
  let w = Orap.num_ext_inputs d + Orap.num_ffs d in
  Alcotest.check_raises "wrong width"
    (Invalid_argument
       (Printf.sprintf "Oracle.scan_chip: expected input width %d, got 3" w))
    (fun () -> ignore (Oracle.query o (Array.make 3 false)))

let test_scan_oracle_deterministic () =
  (* repeated identical queries must return identical (locked) answers;
     the SAT attack's constraint accumulation relies on this *)
  let chip = chip_fixture () in
  Chip.unlock chip;
  let o = Oracle.scan_chip chip in
  let rng = Prng.create 6 in
  let d = Chip.design chip in
  let width = Orap.num_ext_inputs d + Orap.num_ffs d in
  for _ = 1 to 8 do
    let x = Prng.bool_array rng width in
    let y1 = Oracle.query o x in
    let y2 = Oracle.query o x in
    check Alcotest.bool "deterministic" true (y1 = y2)
  done

let test_protect_validation () =
  let nl = random_netlist ~inputs:10 ~outputs:6 ~gates:80 5 in
  let lk = Orap_locking.Weighted.lock nl ~key_size:9 ~ctrl_inputs:3 in
  List.iter
    (fun (kind, num_ffs) ->
      match Orap.protect ~config:(Orap.default_config ~kind ~num_ffs ()) lk with
      | exception Orap.Construction_failure _ -> ()
      | _ -> Alcotest.fail "expected Construction_failure")
    [ (Orap.Basic, 99); (Orap.Modified, 0) ]

let test_unlock_idempotent_key () =
  (* unlocking twice re-runs the controller; the second run starts from a
     dirty state, but a fresh chip always lands on the correct key *)
  let chip = chip_fixture () in
  Chip.unlock chip;
  let k1 = Chip.key_register chip in
  let chip2 = chip_fixture () in
  Chip.unlock chip2;
  check Alcotest.bool "deterministic unlock" true (k1 = Chip.key_register chip2)

(* --- locked-circuit helpers --- *)

let test_locked_eval_width_check () =
  let nl = random_netlist ~inputs:10 ~outputs:6 ~gates:80 5 in
  let lk = Orap_locking.Weighted.lock nl ~key_size:9 ~ctrl_inputs:3 in
  Alcotest.check_raises "wrong input width" (Invalid_argument "Locked.eval")
    (fun () ->
      ignore (Locked.eval lk ~key:lk.Locked.correct_key ~inputs:(Array.make 3 false)))

let test_key_input_positions () =
  let nl = random_netlist ~inputs:10 ~outputs:6 ~gates:80 5 in
  let lk = Orap_locking.Weighted.lock nl ~key_size:9 ~ctrl_inputs:3 in
  let pos = Locked.key_input_positions lk in
  check Alcotest.int "first key input" 10 pos.(0);
  check Alcotest.int "last key input" 18 pos.(8);
  (* key inputs carry their names in the locked netlist *)
  check Alcotest.bool "named key0" true
    (N.find lk.Locked.netlist "key0" <> None)

(* --- zero-sample simulation estimates --- *)

let test_zero_words_rejected () =
  let nl = random_netlist ~inputs:10 ~outputs:6 ~gates:80 5 in
  let lk = Orap_locking.Weighted.lock nl ~key_size:9 ~ctrl_inputs:3 in
  let shared = (nl, [||]) in
  Alcotest.check_raises "HD over 0 words"
    (Invalid_argument "Hamming.distance: words must be positive") (fun () ->
      ignore (Hamming.distance ~words:0 shared shared));
  Alcotest.check_raises "hamming_vs_original over 0 words"
    (Invalid_argument "Hamming.distance: words must be positive") (fun () ->
      ignore (Locked.hamming_vs_original ~words:0 lk lk.Locked.correct_key));
  Alcotest.check_raises "signal probabilities over 0 words"
    (Invalid_argument "Sps.signal_probabilities: words must be positive")
    (fun () -> ignore (Orap_attacks.Sps.signal_probabilities ~words:0 nl))

let test_no_outputs_rejected () =
  let b = N.Builder.create () in
  let x = N.Builder.add_input b in
  ignore (N.Builder.add_node b Gate.Not [| x |]);
  let nl = N.Builder.finish b in
  let c = (nl, [||]) in
  Alcotest.check_raises "HD without outputs"
    (Invalid_argument "Hamming.distance: no outputs") (fun () ->
      ignore (Hamming.distance ~words:4 c c));
  (* a side cannot hold more constant bits than it has inputs *)
  let one = random_netlist ~inputs:2 ~outputs:1 ~gates:4 3 in
  Alcotest.check_raises "HD with more constant bits than inputs"
    (Invalid_argument "Hamming.distance: more constant bits than inputs") (fun () ->
      ignore (Hamming.distance ~words:4 (one, [||]) (one, [| true; false; true |])))

let suite =
  ( "edges",
    [
      tc "vec operations" `Quick test_vec;
      tc "solver tautology/duplicates" `Quick test_solver_tautology_and_dups;
      tc "solver sticky unsat" `Quick test_solver_empty_clause;
      tc "aig constant outputs" `Quick test_aig_const_outputs;
      tc "aig complemented output" `Quick test_aig_complemented_output;
      prop_isop_to_aig_builds_function;
      tc "refactor cut_size checked" `Quick test_refactor_cut_size_checked;
      tc "chip mode errors" `Quick test_chip_mode_errors;
      tc "oracle width check" `Quick test_oracle_width_error;
      tc "scan oracle deterministic" `Quick test_scan_oracle_deterministic;
      tc "protect validation" `Quick test_protect_validation;
      tc "unlock determinism" `Quick test_unlock_idempotent_key;
      tc "locked eval width check" `Quick test_locked_eval_width_check;
      tc "key input positions" `Quick test_key_input_positions;
      tc "zero words rejected" `Quick test_zero_words_rejected;
      tc "HD without outputs rejected" `Quick test_no_outputs_rejected;
    ] )
