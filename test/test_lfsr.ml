open Util
module Lfsr = Orap_lfsr.Lfsr
module Keyseq = Orap_lfsr.Keyseq
module Symbolic = Orap_lfsr.Symbolic
module Bitset = Orap_lfsr.Bitset
module Prng = Orap_sim.Prng
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen

(* --- bitset --- *)

let test_bitset_basics () =
  let s = Bitset.singleton 100 63 in
  check Alcotest.bool "mem 63" true (Bitset.mem s 63);
  check Alcotest.bool "not mem 64" false (Bitset.mem s 64);
  check Alcotest.int "popcount" 1 (Bitset.popcount s);
  Bitset.set s 64;
  check Alcotest.int "popcount 2" 2 (Bitset.popcount s);
  check Alcotest.(list int) "to_list" [ 63; 64 ] (Bitset.to_list s);
  let x = Bitset.xor s (Bitset.singleton 100 63) in
  check Alcotest.(list int) "xor cancels" [ 64 ] (Bitset.to_list x);
  check Alcotest.bool "empty" true (Bitset.is_empty (Bitset.create 10))

let prop_bitset_xor_involution =
  Prop.to_alcotest ~count:50 ~name:"bitset xor is an involution"
    ~gen:(Gen.pair (Gen.int_range 0 10_000) (Gen.int_range 1 200))
    ~print:(fun (seed, width) -> Printf.sprintf "(%d, %d)" seed width)
    (fun (seed, width) ->
      let rng = Prng.create seed in
      let a = Bitset.create width and b = Bitset.create width in
      for _ = 1 to 20 do
        Bitset.set a (Prng.int rng width);
        Bitset.set b (Prng.int rng width)
      done;
      Bitset.equal a (Bitset.xor (Bitset.xor a b) b))

let test_bitset_eval () =
  let e = Bitset.xor (Bitset.singleton 4 0) (Bitset.singleton 4 2) in
  check Alcotest.bool "x0^x2 on 1010" true
    (Bitset.eval e [| true; false; true; false |] = false);
  check Alcotest.bool "x0^x2 on 1000" true
    (Bitset.eval e [| true; false; false; false |] = true)

(* --- LFSR --- *)

let test_default_taps () =
  let taps = Lfsr.default_taps ~size:32 ~stride:8 in
  check Alcotest.int "taps every 8" 3
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 taps);
  check Alcotest.bool "tap at 7" true taps.(7);
  check Alcotest.bool "no tap at 31 (last)" false taps.(31)

let test_step_shift_semantics () =
  (* no taps active when state has 0 feedback: plain shift *)
  let l = Lfsr.create ~size:8 () in
  let s = Array.make 8 false in
  s.(0) <- true;
  Lfsr.set_state l s;
  Lfsr.step l;
  let s' = Lfsr.state l in
  check Alcotest.bool "shifted to cell 1" true s'.(1);
  check Alcotest.bool "cell 0 now 0" false s'.(0)

let test_feedback () =
  let l = Lfsr.create ~size:9 () in
  (* put a 1 in the last cell; feedback should re-enter at 0 and XOR at tap 7 *)
  let s = Array.make 9 false in
  s.(8) <- true;
  Lfsr.set_state l s;
  Lfsr.step l;
  let s' = Lfsr.state l in
  check Alcotest.bool "feedback into 0" true s'.(0);
  check Alcotest.bool "tap 7 toggled by feedback" true s'.(7)

let test_reset () =
  let l = Lfsr.create ~size:16 () in
  Lfsr.set_state l (Array.make 16 true);
  Lfsr.reset l;
  check Alcotest.bool "cleared" true
    (Array.for_all not (Lfsr.state l))

let test_injection () =
  let l = Lfsr.create ~size:8 () in
  let inj = Array.make 8 false in
  inj.(3) <- true;
  Lfsr.step ~injection:inj l;
  check Alcotest.bool "injected at 3" true (Lfsr.state l).(3)

let test_nonzero_period () =
  (* a free-running LFSR from a nonzero state must not get stuck *)
  let l = Lfsr.create ~size:16 () in
  let s = Array.make 16 false in
  s.(5) <- true;
  Lfsr.set_state l s;
  let states = Hashtbl.create 64 in
  let repeated = ref false in
  for _ = 1 to 200 do
    if Hashtbl.mem states (Lfsr.state l) then repeated := true
    else Hashtbl.replace states (Lfsr.state l) ();
    Lfsr.step l
  done;
  ignore !repeated;
  check Alcotest.bool "never all-zero" true
    (Hashtbl.fold (fun s () acc -> acc && Array.exists (fun b -> b) s) states true)

let test_xor_gate_count () =
  let l = Lfsr.create ~size:32 () in
  (* 32 reseed points + 3 taps *)
  check Alcotest.int "xor count" 35 (Lfsr.xor_gate_count l)

(* --- key sequences --- *)

let prop_solve_for_key =
  Prop.to_alcotest ~count:25 ~name:"solve_for_key reaches arbitrary targets"
    ~gen:(Gen.pair (Gen.int_range 0 10_000) (Gen.int_range 8 96))
    ~print:(fun (seed, size) -> Printf.sprintf "(%d, %d)" seed size)
    (fun (seed, size) ->
      let l = Lfsr.create ~size () in
      let rng = Prng.create seed in
      let target = Prng.bool_array rng size in
      let ks = Keyseq.solve_for_key ~seed ~num_seeds:3 l ~target_key:target in
      Keyseq.apply l ks = target)

let prop_symbolic_matches_concrete =
  Prop.to_alcotest ~count:25 ~name:"symbolic LFSR matches concrete simulation"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let size = 24 in
      let l = Lfsr.create ~size () in
      let num_seeds = 3 in
      let ks = Keyseq.random ~seed ~num_seeds l in
      let key = Keyseq.apply l ks in
      let free_runs =
        List.map (fun e -> e.Keyseq.free_run) (Keyseq.entries ks)
      in
      let exprs = Symbolic.of_schedule l ~num_seeds ~free_runs in
      let width = Lfsr.num_reseed_points l in
      let assignment = Array.make (num_seeds * width) false in
      List.iteri
        (fun s e ->
          Array.iteri (fun k b -> assignment.((s * width) + k) <- b) e.Keyseq.seed)
        (Keyseq.entries ks);
      Array.for_all2
        (fun expr bit -> Bitset.eval expr assignment = bit)
        exprs key)

let test_unlock_cycles () =
  let l = Lfsr.create ~size:16 () in
  let ks = Keyseq.random ~max_free_run:0 ~seed:4 ~num_seeds:5 l in
  check Alcotest.int "cycles, no free runs" 5 (Keyseq.unlock_cycles ks);
  check Alcotest.int "seeds" 5 (Keyseq.num_seeds ks);
  check Alcotest.int "seed bits" (5 * 16) (Keyseq.total_seed_bits ks)

let prop_linear_solver =
  Prop.to_alcotest ~count:30 ~name:"Symbolic.solve solves random consistent systems"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let rng = Prng.create seed in
      let num_vars = 20 and rows = 16 in
      let exprs =
        Array.init rows (fun _ ->
            let e = Bitset.create num_vars in
            for _ = 1 to 6 do
              Bitset.set e (Prng.int rng num_vars)
            done;
            e)
      in
      let x = Prng.bool_array rng num_vars in
      let target = Array.map (fun e -> Bitset.eval e x) exprs in
      match Symbolic.solve exprs ~num_vars target with
      | None -> false
      | Some sol -> Array.for_all2 (fun e t -> Bitset.eval e sol = t) exprs target)

let test_solver_detects_inconsistency () =
  (* x0 = 0 and x0 = 1 *)
  let e = Bitset.singleton 4 0 in
  let exprs = [| e; Bitset.copy e |] in
  check Alcotest.bool "inconsistent" true
    (Symbolic.solve exprs ~num_vars:4 [| true; false |] = None)

let test_xor_tree_gates () =
  let exprs = [| Bitset.create 8; Bitset.singleton 8 0 |] in
  Bitset.set exprs.(0) 1;
  Bitset.set exprs.(0) 2;
  Bitset.set exprs.(0) 3;
  (* 3 terms -> 2 XORs; single term -> 0 *)
  check Alcotest.int "gate count" 2 (Symbolic.xor_tree_gates exprs);
  check (Alcotest.float 1e-9) "mean terms" 2.0 (Symbolic.mean_terms exprs)

let suite =
  ( "lfsr",
    [
      tc "bitset basics" `Quick test_bitset_basics;
      prop_bitset_xor_involution;
      tc "bitset eval" `Quick test_bitset_eval;
      tc "default taps" `Quick test_default_taps;
      tc "shift semantics" `Quick test_step_shift_semantics;
      tc "feedback taps" `Quick test_feedback;
      tc "reset clears" `Quick test_reset;
      tc "reseeding injection" `Quick test_injection;
      tc "free-run stays nonzero" `Quick test_nonzero_period;
      tc "xor gate accounting" `Quick test_xor_gate_count;
      prop_solve_for_key;
      prop_symbolic_matches_concrete;
      tc "key sequence sizes" `Quick test_unlock_cycles;
      prop_linear_solver;
      tc "inconsistent system rejected" `Quick test_solver_detects_inconsistency;
      tc "xor tree accounting" `Quick test_xor_tree_gates;
    ] )
