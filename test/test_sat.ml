open Util
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Tseitin = Orap_sat.Tseitin
module Dimacs = Orap_sat.Dimacs
module N = Orap_netlist.Netlist
module Prng = Orap_sim.Prng
module Ref = Solver_ref

let result = Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt
        (match r with
        | Solver.Sat -> "SAT"
        | Solver.Unsat -> "UNSAT"
        | Solver.Unknown -> "UNKNOWN"))
    ( = )

let test_lit_encoding () =
  let l = Lit.pos 5 in
  check Alcotest.int "var" 5 (Lit.var l);
  check Alcotest.bool "pos" false (Lit.is_neg l);
  check Alcotest.bool "negate" true (Lit.is_neg (Lit.negate l));
  check Alcotest.int "dimacs" 6 (Lit.to_dimacs l);
  check Alcotest.int "dimacs neg" (-6) (Lit.to_dimacs (Lit.neg 5));
  check Alcotest.int "of_dimacs roundtrip" l (Lit.of_dimacs 6)

let test_empty_sat () =
  let s = Solver.create () in
  check result "empty" Solver.Sat (Solver.solve s)

let test_unit_conflict () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos v ]);
  ignore (Solver.add_clause s [ Lit.neg v ]);
  check result "x & ~x" Solver.Unsat (Solver.solve s)

(* pigeon p in hole h is variable p * holes + h *)
let php_clauses ~holes ~pigeons =
  let v p h = (p * holes) + h in
  List.init pigeons (fun p -> List.init holes (fun h -> Lit.pos (v p h)))
  @ List.concat
      (List.init holes (fun h ->
           List.concat
             (List.init pigeons (fun p1 ->
                  List.filter_map
                    (fun p2 ->
                      if p2 > p1 then Some [ Lit.neg (v p1 h); Lit.neg (v p2 h) ]
                      else None)
                    (List.init pigeons Fun.id)))))

let php_solver ~holes ~pigeons =
  let s = Solver.create () in
  ignore (Solver.new_vars s (holes * pigeons));
  List.iter (fun c -> ignore (Solver.add_clause s c)) (php_clauses ~holes ~pigeons);
  s

let php ~holes ~pigeons = Solver.solve (php_solver ~holes ~pigeons)

(* conflicts a fresh solver spends refuting php(holes, pigeons); the solver
   is deterministic so a second fresh run replays the same trajectory *)
let php_refutation_conflicts ~holes ~pigeons =
  let s = php_solver ~holes ~pigeons in
  check result "refutable" Solver.Unsat (Solver.solve s);
  Solver.num_conflicts s

let test_conflict_limit_unknown () =
  let full = php_refutation_conflicts ~holes:7 ~pigeons:8 in
  check Alcotest.bool "php(7,8) costs conflicts" true (full > 4);
  let s = php_solver ~holes:7 ~pigeons:8 in
  check result "limit trips mid-proof" Solver.Unknown
    (Solver.solve ~conflict_limit:4 s);
  (* the solver stays usable: an uncapped resume reaches the real answer *)
  check result "resume after Unknown" Solver.Unsat (Solver.solve s)

(* regression: a genuine refutation completed on exactly the cap-th
   conflict used to be indistinguishable from a tripped limit *)
let test_unsat_at_exact_cap () =
  let c = php_refutation_conflicts ~holes:3 ~pigeons:4 in
  check Alcotest.bool "php(3,4) costs conflicts" true (c > 0);
  let s = php_solver ~holes:3 ~pigeons:4 in
  check result "real Unsat at exactly the cap" Solver.Unsat
    (Solver.solve ~conflict_limit:c s);
  let s = php_solver ~holes:3 ~pigeons:4 in
  check result "one conflict short is Unknown" Solver.Unknown
    (Solver.solve ~conflict_limit:(c - 1) s)

(* same boundary one layer up: Budget.solve must report Ok Unsat, not a
   spent conflict budget, when the proof lands exactly on the cap *)
let test_budget_unsat_at_exact_cap () =
  let module Budget = Orap_attacks.Budget in
  let c = php_refutation_conflicts ~holes:3 ~pigeons:4 in
  let clock = Budget.start (Budget.make ~max_conflicts:c ()) in
  (match Budget.solve clock (php_solver ~holes:3 ~pigeons:4) with
  | Ok Budget.Unsat -> ()
  | Ok Budget.Sat -> Alcotest.fail "expected Unsat, got Sat"
  | Error r ->
    Alcotest.fail
      ("budget misread a genuine refutation as " ^ Budget.reason_to_string r));
  let clock = Budget.start (Budget.make ~max_conflicts:(c - 1) ()) in
  match Budget.solve clock (php_solver ~holes:3 ~pigeons:4) with
  | Error (Budget.Conflicts _) -> ()
  | Error r -> Alcotest.fail ("unexpected reason: " ^ Budget.reason_to_string r)
  | Ok _ -> Alcotest.fail "a too-small budget must not produce an answer"

let test_pigeonhole () =
  check result "php(3,4)" Solver.Unsat (php ~holes:3 ~pigeons:4);
  check result "php(4,4)" Solver.Sat (php ~holes:4 ~pigeons:4);
  check result "php(7,8)" Solver.Unsat (php ~holes:7 ~pigeons:8)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a; Lit.pos b ]);
  check result "both negated" Solver.Unsat
    (Solver.solve ~assumptions:[| Lit.neg a; Lit.neg b |] s);
  check result "one negated" Solver.Sat
    (Solver.solve ~assumptions:[| Lit.neg a |] s);
  check Alcotest.bool "model forces b" true (Solver.model_value s b);
  (* solver remains usable *)
  check result "no assumptions" Solver.Sat (Solver.solve s)

let test_incremental_add () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a; Lit.pos b ]);
  check result "sat" Solver.Sat (Solver.solve s);
  Solver.backtrack_to_root s;
  ignore (Solver.add_clause s [ Lit.neg a ]);
  ignore (Solver.add_clause s [ Lit.neg b ]);
  check result "unsat after adds" Solver.Unsat (Solver.solve s)

let brute_force_sat nv clauses =
  let sat = ref false in
  for m = 0 to (1 lsl nv) - 1 do
    if not !sat then
      if
        List.for_all
          (List.exists (fun l ->
               let v = Lit.var l in
               let bit = (m lsr v) land 1 = 1 in
               if Lit.is_neg l then not bit else bit))
          clauses
      then sat := true
  done;
  !sat

let prop_random_3sat_sound =
  Prop.to_alcotest ~count:60 ~name:"random 3-SAT agrees with brute force"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let rng = Prng.create seed in
      let nv = 12 in
      let s = Solver.create () in
      let vars = Solver.new_vars s nv in
      let clauses = ref [] in
      for _ = 1 to 52 do
        let cl =
          List.init 3 (fun _ ->
              Lit.of_var ~negated:(Prng.bool rng) vars.(Prng.int rng nv))
        in
        clauses := cl :: !clauses;
        ignore (Solver.add_clause s cl)
      done;
      let expected = brute_force_sat nv !clauses in
      match Solver.solve s with
      | Solver.Sat ->
        expected
        && List.for_all
             (List.exists (fun l -> Solver.model_lit s l))
             !clauses
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

(* --- the solver against its reference copy --- *)

(* The search counts the solver spends on fixed inputs, recorded before the
   clause arena replaced boxed clause records.  Any change to a search
   decision moves them. *)
let test_pinned_search_counts () =
  let s = php_solver ~holes:7 ~pigeons:8 in
  check result "php(7,8)" Solver.Unsat (Solver.solve s);
  check Alcotest.int "php(7,8) conflicts" 4201 (Solver.num_conflicts s);
  check Alcotest.int "php(7,8) decisions" 5053 (Solver.num_decisions s);
  check Alcotest.int "php(7,8) propagations" 49571 (Solver.num_propagations s);
  let fx = Orap_experiments.Security.make_fixture ~num_gates:200 ~key_size:16 () in
  let locked = fx.Orap_experiments.Security.locked in
  let r =
    Orap_attacks.Sat_attack.run locked (Orap_core.Oracle.functional locked)
  in
  check Alcotest.int "SAT attack conflicts" 260 r.Orap_attacks.Sat_attack.conflicts;
  (* the 7-bit SARLock fixture of perfbench's DIP-loop workload: 2^7 - 1
     DIPs, each a Sat answer over a miter that grows with every DIP *)
  let nl =
    Orap_benchgen.Benchgen.generate
      { Orap_benchgen.Benchgen.seed = 5; num_inputs = 32; num_outputs = 24;
        num_gates = 200 }
  in
  let lk = Orap_locking.Sarlock.lock nl ~key_size:7 in
  let pin name (r : Orap_attacks.Attack.result) iterations conflicts =
    check Alcotest.int (name ^ " iterations") iterations r.Orap_attacks.Attack.iterations;
    check Alcotest.int (name ^ " conflicts") conflicts r.Orap_attacks.Attack.conflicts
  in
  let oracle () = Orap_core.Oracle.functional lk in
  pin "SARLock SAT attack" (Orap_attacks.Sat_attack.run ~max_iterations:256 lk (oracle ())) 127 173;
  pin "SARLock Double DIP" (Orap_attacks.Double_dip.run ~max_iterations:256 lk (oracle ())) 127 256

let verdict = function
  | Solver.Sat -> "SAT" | Solver.Unsat -> "UNSAT" | Solver.Unknown -> "UNKNOWN"

let ref_verdict = function
  | Ref.Sat -> "SAT" | Ref.Unsat -> "UNSAT" | Ref.Unknown -> "UNKNOWN"

(* Both solvers hold the same counters and the same assignment (the model
   after [Sat], the root-level units otherwise), and the arena holds at
   most 4/3 of the words of the live clauses. *)
let same_state s r =
  Solver.num_vars s = Ref.num_vars r
  && Solver.num_clauses s = Ref.num_clauses r
  && Solver.num_learnts s = Ref.num_learnts r
  && Solver.num_conflicts s = Ref.num_conflicts r
  && Solver.num_decisions s = Ref.num_decisions r
  && Solver.num_propagations s = Ref.num_propagations r
  && List.for_all
       (fun v -> Solver.value_var s v = Ref.value_var r v)
       (List.init (Solver.num_vars s) Fun.id)
  && 3 * Solver.arena_words s <= 4 * Ref.live_words r

(* [add_clause]'s intake against the reference, one edge case per step: the
   verdict, the counters, the root assignment and the arena words. *)
let test_add_clause_edges () =
  let s = Solver.create () and r = Ref.create () in
  ignore (Solver.new_vars s 6, Ref.new_vars r 6);
  let p = Lit.pos and n = Lit.neg in
  let add name c ~ok ~clauses ~words =
    check Alcotest.bool (name ^ ": verdict") ok (Solver.add_clause s c);
    check Alcotest.bool (name ^ ": reference verdict") ok (Ref.add_clause r c);
    check Alcotest.bool (name ^ ": same state") true (same_state s r);
    check Alcotest.int (name ^ ": problem clauses") clauses (Solver.num_clauses s);
    check Alcotest.int (name ^ ": arena words") words (Solver.arena_words s)
  in
  add "duplicates" [ p 0; p 1; p 0; p 1; p 0 ] ~ok:true ~clauses:1 ~words:4;
  add "complementary pair far apart" [ n 2; p 3; p 4; p 1; p 5; p 2 ] ~ok:true
    ~clauses:1 ~words:4;
  add "unit" [ n 5; n 5 ] ~ok:true ~clauses:1 ~words:4;
  add "second unit" [ p 4 ] ~ok:true ~clauses:1 ~words:4;
  add "root-true literal drops the clause" [ n 0; p 4; n 1 ] ~ok:true ~clauses:1
    ~words:4;
  add "root-false literals are filtered out" [ p 5; p 0; n 4; n 1 ] ~ok:true
    ~clauses:2 ~words:8;
  add "root-false literals leave a unit" [ p 5; p 3; n 4 ] ~ok:true ~clauses:2
    ~words:8;
  check Alcotest.int "the unit is asserted" 1 (Solver.value_var s 3);
  add "all literals false" [ p 5; n 4; n 3 ] ~ok:false ~clauses:2 ~words:8;
  add "ignored once inconsistent" [ p 0 ] ~ok:false ~clauses:2 ~words:8;
  check result "inconsistent" Solver.Unsat (Solver.solve s)

(* Drive a fresh solver and a fresh reference through the same steps and
   compare them after each: load [clauses] over [nvars] variables, then
   six rounds of a solve under up to three random assumptions, half the
   time with a conflict limit a few hundred conflicts ahead (so some end
   [Unknown]), followed by one more clause: one that blocks the model on
   its first eight variables after [Sat], a random 3-clause otherwise. *)
let differential rng ~nvars clauses =
  let s = Solver.create () and r = Ref.create () in
  let ok = ref (Solver.new_vars s nvars = Ref.new_vars r nvars) in
  let step a b = ok := !ok && a = b && same_state s r in
  let add c = if !ok then step (Solver.add_clause s c) (Ref.add_clause r c) in
  let random_lit () = Lit.of_var ~negated:(Prng.bool rng) (Prng.int rng nvars) in
  List.iter add clauses;
  for _ = 1 to 6 do
    let assumptions = Array.init (Prng.int rng 4) (fun _ -> random_lit ()) in
    let conflict_limit =
      if Prng.bool rng then Some (Solver.num_conflicts s + 1 + Prng.int rng 400)
      else None
    in
    if !ok then begin
      let v = Solver.solve ~assumptions ?conflict_limit s in
      step (verdict v) (ref_verdict (Ref.solve ~assumptions ?conflict_limit r));
      add
        (if v = Solver.Sat then
           List.init (min 8 nvars) (fun x ->
               Lit.of_var ~negated:(Solver.model_value s x) x)
         else List.init 3 (fun _ -> random_lit ()))
    end
  done;
  !ok

(* 4.0 to 4.3 clauses per variable: around the satisfiability threshold *)
let random_3sat rng nvars =
  List.init
    (nvars * (400 + Prng.int rng 31) / 100)
    (fun _ -> List.init 3 (fun _ -> Lit.of_var ~negated:(Prng.bool rng) (Prng.int rng nvars)))

let seed = Gen.int_range 0 1_000_000_000

(* P: on random 3-SAT near the threshold (40-80 variables), the arena
   solver takes exactly the reference solver's steps *)
let prop_matches_reference_3sat =
  Prop.to_alcotest ~count:30
    ~name:"solver matches the reference on random 3-SAT" ~gen:seed
    ~print:string_of_int (fun seed ->
      let rng = Prng.create seed in
      let nvars = 40 + Prng.int rng 41 in
      differential rng ~nvars (random_3sat rng nvars))

(* P: on pigeonhole instances, whose refutations run through several
   restarts, clause reductions and compactions, the arena solver takes
   exactly the reference solver's steps *)
let prop_matches_reference_php =
  Prop.to_alcotest ~count:6
    ~name:"solver matches the reference on pigeonhole" ~gen:seed
    ~print:string_of_int (fun seed ->
      let rng = Prng.create seed in
      let holes = 6 + Prng.int rng 2 in
      differential rng ~nvars:(holes * (holes + 1))
        (php_clauses ~holes ~pigeons:(holes + 1)))

(* The Tseitin clauses of [nl] over fresh variables, [inputs.(i)] standing
   for input [i], in the shapes [Tseitin.encode] gives literal fanins: per
   AND-like gate a binary clause per fanin and one long clause, two binary
   clauses per inverter or buffer, four ternary clauses per XOR step and
   per multiplexer.  An XNOR is an XOR into the negated output, and a
   constant gate a unit clause (where [Tseitin.encode] folds it).  It is
   written against callbacks, so that the solver and its reference get the
   same calls.  Returns the output literals. *)
let gate_cnf ~fresh ~add nl inputs =
  let neg = Lit.negate in
  let xor2 o a b =
    add [ neg o; a; b ]; add [ neg o; neg a; neg b ];
    add [ o; a; neg b ]; add [ o; neg a; b ]
  in
  let lits = Array.make (N.num_nodes nl) 0 and input = ref 0 in
  for i = 0 to N.num_nodes nl - 1 do
    let xs = Array.map (fun f -> lits.(f)) (N.fanins nl i) in
    lits.(i) <-
      (match N.kind nl i with
       | Gate.Input -> incr input; inputs.(!input - 1)
       | k ->
         let o = Lit.pos (fresh ()) in
         (match k with
          | Gate.Input -> assert false
          | Gate.Const0 -> add [ neg o ]
          | Gate.Const1 -> add [ o ]
          | Gate.Buf -> add [ neg o; xs.(0) ]; add [ o; neg xs.(0) ]
          | Gate.Not -> add [ neg o; neg xs.(0) ]; add [ o; xs.(0) ]
          | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
            let pol = if k = Gate.Or || k = Gate.Nor then neg else Fun.id in
            let out = if k = Gate.Nand || k = Gate.Or then neg o else o in
            Array.iter (fun x -> add [ neg out; pol x ]) xs;
            add (out :: Array.to_list (Array.map (fun x -> neg (pol x)) xs))
          | Gate.Xor | Gate.Xnor ->
            let out = if k = Gate.Xnor then neg o else o in
            let last = Array.length xs - 1 in
            if last = 0 then (add [ neg out; xs.(0) ]; add [ out; neg xs.(0) ])
            else begin
              let acc = ref xs.(0) in
              for j = 1 to last do
                let t = if j = last then out else Lit.pos (fresh ()) in
                xor2 t !acc xs.(j);
                acc := t
              done
            end
          | Gate.Mux ->
            let sel = xs.(0) and a = xs.(1) and b = xs.(2) in
            add [ neg o; sel; a ]; add [ o; sel; neg a ];
            add [ neg o; neg sel; b ]; add [ o; neg sel; neg b ]);
         o)
  done;
  Array.map (fun o -> lits.(o)) (N.outputs nl)

(* A SAT attack's DIP loop, step for step on both solvers: the miter of two
   copies of a SARLock-locked random netlist, then one DIP per [Sat]
   answer (a model read, a return to the root, and two more copies pinned
   to the DIP and the original's response by unit clauses), until the
   miter is refuted.  Each DIP grows the variable set, and every copy
   brings many binary clauses. *)
let dip_loop_differential seed =
  let rng = Prng.create seed in
  let nl = Gen.netlist () rng in
  let lk = Orap_locking.Sarlock.lock nl ~key_size:(2 + Prng.int rng 3) in
  let net = lk.Orap_locking.Locked.netlist in
  let nri = lk.Orap_locking.Locked.num_regular_inputs in
  let s = Solver.create () and r = Ref.create () in
  let ok = ref true in
  let step a b = ok := !ok && a = b && same_state s r in
  let fresh () =
    let v = Solver.new_var s in
    step v (Ref.new_var r);
    v
  in
  let add c = if !ok then step (Solver.add_clause s c) (Ref.add_clause r c) in
  let vars n = Array.init n (fun _ -> Lit.pos (fresh ())) in
  let copy x key = gate_cnf ~fresh ~add net (Array.append x key) in
  let x = vars nri in
  let keys = List.init 2 (fun _ -> vars (N.num_inputs net - nri)) in
  (match List.map (copy x) keys with
   | [ o1; o2 ] ->
     let d = vars (Array.length o1) in
     Array.iteri
       (fun j dj ->
         add [ Lit.negate dj; o1.(j); o2.(j) ];
         add [ Lit.negate dj; Lit.negate o1.(j); Lit.negate o2.(j) ])
       d;
     add (Array.to_list d)
   | _ -> assert false);
  let rec loop () =
    let v = Solver.solve s in
    step (verdict v) (ref_verdict (Ref.solve r));
    if !ok && v = Solver.Sat then begin
      let dip = Array.map (Solver.model_lit s) x in
      step dip (Array.map (Ref.model_lit r) x);
      Solver.backtrack_to_root s;
      Ref.backtrack_to_root r;
      step () ();
      let y = Sim.eval_bools lk.Orap_locking.Locked.original dip in
      let pin l b = add [ (if b then l else Lit.negate l) ] in
      List.iter
        (fun key ->
          let xi = vars nri in
          Array.iteri (fun i l -> pin l dip.(i)) xi;
          Array.iteri (fun j o -> pin o y.(j)) (copy xi key))
        keys;
      loop ()
    end
  in
  loop ();
  !ok

(* P: through a DIP loop's long runs of [Sat] answers, each followed by a
   return to the root and new units and copies, the arena solver takes
   exactly the reference solver's steps *)
let prop_matches_reference_dip_loop =
  Prop.to_alcotest ~count:12
    ~name:"solver matches the reference through a DIP loop" ~gen:seed
    ~print:string_of_int dip_loop_differential

(* A long refutation deletes far more learnt clauses than it keeps; the
   arena must follow the live clauses, not the conflicts so far. *)
let test_arena_compaction () =
  let holes = 8 and pigeons = 9 in
  let s = Solver.create () and r = Ref.create () in
  ignore (Solver.new_vars s (holes * pigeons), Ref.new_vars r (holes * pigeons));
  List.iter
    (fun c -> ignore (Solver.add_clause s c, Ref.add_clause r c))
    (php_clauses ~holes ~pigeons);
  check result "capped run" Solver.Unknown (Solver.solve ~conflict_limit:12_000 s);
  ignore (Ref.solve ~conflict_limit:12_000 r);
  check Alcotest.bool "same search" true (same_state s r);
  let arena = Solver.arena_words s and live = Ref.live_words r in
  check Alcotest.bool
    (Printf.sprintf "arena %d words within 4/3 of live %d" arena live)
    true (3 * arena <= 4 * live);
  check Alcotest.bool
    (Printf.sprintf "arena %d words far below the %d ever allocated" arena
       (Ref.allocated_words r))
    true (4 * arena < Ref.allocated_words r)

(* --- Tseitin --- *)

let test_tseitin_equivalence () =
  (* miter of a netlist against itself must be UNSAT *)
  let nl = random_netlist ~inputs:8 ~outputs:5 ~gates:60 77 in
  let s = Solver.create () in
  let x = Solver.new_vars s (N.num_inputs nl) in
  let input i = Lit.pos x.(i) in
  let o1 = Tseitin.outputs nl (Tseitin.encode s nl ~input) in
  let o2 = Tseitin.outputs nl (Tseitin.encode s nl ~input) in
  Tseitin.clause s (Array.to_list (Array.map2 (Tseitin.xor s) o1 o2));
  check result "self-miter UNSAT" Solver.Unsat (Solver.solve s)

let prop_tseitin_matches_simulation =
  Prop.to_alcotest ~count:30 ~name:"tseitin model agrees with simulation"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let nl = random_netlist ~inputs:7 ~outputs:4 ~gates:45 seed in
      let s = Solver.create () in
      let x = Solver.new_vars s (N.num_inputs nl) in
      let outs =
        Tseitin.outputs nl (Tseitin.encode s nl ~input:(fun i -> Lit.pos x.(i)))
      in
      (* force a random input assignment via unit clauses *)
      let rng = Prng.create (seed + 1) in
      let inp = Array.init (N.num_inputs nl) (fun _ -> Prng.bool rng) in
      Array.iteri
        (fun i v ->
          ignore
            (Solver.add_clause s [ (if inp.(i) then Lit.pos v else Lit.neg v) ]))
        x;
      match Solver.solve s with
      | Solver.Unsat | Solver.Unknown -> false
      | Solver.Sat ->
        let sim = Orap_sim.Sim.eval_bools nl inp in
        Array.for_all2 (fun o expect -> Solver.model_lit s o = expect) outs sim)

(* P: with a random subset of the inputs tied to constants, every node's
   literal or constant agrees with simulation under every assignment of
   the other inputs, on full-vocabulary netlists (Const gates, Mux); with
   every input constant, the encoding folds to constants and makes no
   variable *)
let prop_tseitin_folds_constant_inputs =
  Prop.to_alcotest ~count:40 ~name:"tseitin with constant inputs agrees with simulation"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let rng = Prng.create seed in
      let params = { Gen.default_params with inputs = (1, 7) } in
      let nl = Gen.netlist ~params () rng in
      let ni = N.num_inputs nl in
      let fixed =
        Array.init ni (fun _ -> if Prng.bool rng then Some (Prng.bool rng) else None)
      in
      let free = List.filter (fun i -> fixed.(i) = None) (List.init ni Fun.id) in
      let s = Solver.create () in
      let x = Solver.new_vars s ni in
      let lits =
        Tseitin.encode s nl ~input:(fun i ->
            match fixed.(i) with Some b -> Tseitin.const b | None -> Lit.pos x.(i))
      in
      let value l =
        if Tseitin.is_const l then l = Tseitin.true_ else Solver.model_lit s l
      in
      (free <> [] || Solver.num_vars s = ni)
      && List.for_all
           (fun a ->
             let inp = Array.map (Option.value ~default:false) fixed in
             List.iteri (fun j i -> inp.(i) <- (a lsr j) land 1 = 1) free;
             let assumptions =
               Array.of_list
                 (List.map
                    (fun i -> Lit.of_var ~negated:(not inp.(i)) x.(i))
                    free)
             in
             Solver.solve ~assumptions s = Solver.Sat
             && Array.for_all2 (fun l v -> value l = v) lits (eval_nodes nl inp))
           (List.init (1 lsl List.length free) Fun.id))

(* --- DIMACS --- *)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Dimacs.parse text in
  check Alcotest.int "vars" 3 cnf.Dimacs.num_vars;
  check Alcotest.int "clauses" 2 (List.length cnf.Dimacs.clauses);
  let cnf2 = Dimacs.parse (Dimacs.print cnf) in
  check Alcotest.bool "roundtrip" true (cnf.Dimacs.clauses = cnf2.Dimacs.clauses);
  let s, _ = Dimacs.to_solver cnf in
  check result "sat" Solver.Sat (Solver.solve s)

(* to_solver must reach the same verdict as loading the same clauses into a
   fresh Solver by hand, for both satisfiable and unsatisfiable inputs *)
let test_dimacs_solver_cross_check () =
  let manual_solve (cnf : Dimacs.cnf) =
    let s = Solver.create () in
    let vars = Solver.new_vars s cnf.Dimacs.num_vars in
    List.iter
      (fun clause ->
        ignore
          (Solver.add_clause s
             (List.map
                (fun i -> Lit.of_var ~negated:(i < 0) vars.(abs i - 1))
                clause)))
      cnf.Dimacs.clauses;
    Solver.solve s
  in
  let cases =
    [
      ("sat", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n", Solver.Sat);
      ("unsat", "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", Solver.Unsat);
      ("unit chain", "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n", Solver.Sat);
    ]
  in
  List.iter
    (fun (name, text, expected) ->
      let cnf = Dimacs.parse text in
      let s, _ = Dimacs.to_solver cnf in
      check result (name ^ " via to_solver") expected (Solver.solve s);
      check result (name ^ " via manual load") expected (manual_solve cnf);
      (* and the verdict survives a print/parse round-trip *)
      let s2, _ = Dimacs.to_solver (Dimacs.parse (Dimacs.print cnf)) in
      check result (name ^ " after roundtrip") expected (Solver.solve s2))
    cases

(* a token that is not an integer is an error naming its line, not a
   literal silently dropped *)
let test_dimacs_rejects_bad_tokens () =
  let raises text expected =
    match Dimacs.parse text with
    | _ -> Alcotest.failf "parsed %S" text
    | exception Failure msg -> check Alcotest.string text expected msg
  in
  raises "p cnf 2 1\n1 x 0\n" "Dimacs.parse: line 2: bad literal \"x\"";
  raises "c ok\n1 -2 0\n2 0.5 0\n" "Dimacs.parse: line 3: bad literal \"0.5\"";
  raises "p cnf two 1\n1 0\n" "Dimacs.parse: line 1: bad problem line \"p cnf two 1\"";
  (* tabs separate tokens too *)
  let cnf = Dimacs.parse "p cnf 2 2\n1\t-2 0\n2 0\n" in
  check Alcotest.(list (list int)) "tabs" [ [ 1; -2 ]; [ 2 ] ] cnf.Dimacs.clauses

let test_stats_exposed () =
  let s = Solver.create () in
  ignore (php ~holes:3 ~pigeons:4);
  check Alcotest.bool "fresh solver has no conflicts" true
    (Solver.num_conflicts s = 0 && Solver.num_decisions s = 0
     && Solver.num_propagations s = 0);
  check Alcotest.int "vars" 0 (Solver.num_vars s)

let suite =
  ( "sat",
    [
      tc "literal encoding" `Quick test_lit_encoding;
      tc "empty formula" `Quick test_empty_sat;
      tc "unit conflict" `Quick test_unit_conflict;
      tc "pigeonhole" `Quick test_pigeonhole;
      tc "conflict limit yields Unknown" `Quick test_conflict_limit_unknown;
      tc "real Unsat at exact conflict cap" `Quick test_unsat_at_exact_cap;
      tc "budget honours Unsat at exact cap" `Quick test_budget_unsat_at_exact_cap;
      tc "assumptions" `Quick test_assumptions;
      tc "incremental clause adding" `Quick test_incremental_add;
      prop_random_3sat_sound;
      tc "pinned search counts" `Quick test_pinned_search_counts;
      prop_matches_reference_3sat;
      prop_matches_reference_php;
      prop_matches_reference_dip_loop;
      tc "add_clause edge cases" `Quick test_add_clause_edges;
      tc "arena compaction bounds memory" `Quick test_arena_compaction;
      tc "tseitin self-miter" `Quick test_tseitin_equivalence;
      prop_tseitin_matches_simulation;
      prop_tseitin_folds_constant_inputs;
      tc "dimacs roundtrip" `Quick test_dimacs_roundtrip;
      tc "dimacs solver cross-check" `Quick test_dimacs_solver_cross_check;
      tc "dimacs rejects bad tokens" `Quick test_dimacs_rejects_bad_tokens;
      tc "statistics exposed" `Quick test_stats_exposed;
    ] )
