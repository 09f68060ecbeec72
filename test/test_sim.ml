open Util
module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng
module Hamming = Orap_sim.Hamming
module Equiv = Orap_proptest.Equiv
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 7 and b = Prng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next64 a = Prng.next64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 2)

let test_prng_int_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.float rng in
    check Alcotest.bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_bool_balance () =
  let rng = Prng.create 5 in
  let ones = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bool rng then incr ones
  done;
  let ratio = float_of_int !ones /. float_of_int n in
  check Alcotest.bool "roughly balanced" true (ratio > 0.45 && ratio < 0.55)

(* the first words of two seeds, as the xoshiro256** state in four
   mutable fields produced them *)
let test_prng_pinned () =
  List.iter
    (fun (seed, want) ->
      let rng = Prng.create seed in
      List.iter (fun w -> check Alcotest.int64 (Printf.sprintf "seed %d" seed) w (Prng.next64 rng)) want)
    [
      (0, [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L; 7684712102626143532L ]);
      (2020, [ 2536873039720582659L; 5187709462951299870L; -3240488887996178394L; 741655993792864395L ]);
    ]

let test_popcount () =
  check Alcotest.int "zero" 0 (Sim.popcount64 0L);
  check Alcotest.int "ones" 64 (Sim.popcount64 Int64.minus_one);
  check Alcotest.int "one bit" 1 (Sim.popcount64 0x8000000000000000L);
  check Alcotest.int "pattern" 32 (Sim.popcount64 0x5555555555555555L)

(* word-parallel and single-pattern simulation must agree *)
let test_word_vs_bool_agree () =
  let nl = random_netlist ~inputs:10 ~outputs:6 ~gates:80 42 in
  let rng = Prng.create 9 in
  let s = Sim.store nl in
  for _ = 1 to 10 do
    let words = Array.init 10 (fun _ -> Prng.next64 rng) in
    Sim.eval nl s words;
    for bit = 0 to 63 do
      let outs_b = Sim.eval_bools nl (lane_of words bit) in
      Array.iteri
        (fun j o ->
          let expected =
            Int64.logand (Int64.shift_right_logical (Sim.word s o) bit) 1L <> 0L
          in
          check Alcotest.bool "bit agrees" expected outs_b.(j))
        (N.outputs nl)
    done
  done

(* every gate kind, and each associative kind at two and three inputs,
   every gate an output; returns the netlist, a 2-input AND and a 3-input
   XOR *)
let every_kind_netlist () =
  let b = N.Builder.create () in
  let x = Array.init 3 (fun _ -> N.Builder.add_input b) in
  let gate k fan =
    let n = N.Builder.add_node b k fan in
    N.Builder.mark_output b n;
    n
  in
  List.iter
    (fun (k, fan) -> ignore (gate k fan))
    Gate.[ (Const0, [||]); (Const1, [||]); (Buf, [| x.(0) |]); (Not, [| x.(1) |]); (Mux, x) ];
  let two_three k = (gate k [| x.(0); x.(1) |], gate k x) in
  let and2, _ = two_three Gate.And in
  List.iter (fun k -> ignore (two_three k)) Gate.[ Nand; Or; Nor; Xnor ];
  let _, xor3 = two_three Gate.Xor in
  (N.Builder.finish b, and2, xor3)

(* minor words allocated by the second of two calls of [f] *)
let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* the word kernels allocate nothing: evaluation, a built reader index,
   the one-gate switch, and dropping a stem and a branch fault (the walk to the
   region root, the root's propagation, detection and restore) on a reused
   engine, whose region tables the first call builds *)
let test_kernels_allocate_nothing () =
  let nl, and2, xor3 = every_kind_netlist () in
  let words = [| 0xF0F0F0F0F0F0F0F0L; 0xCCCCCCCCCCCCCCCCL; 0xAAAAAAAAAAAAAAAAL |] in
  let s = Sim.store nl in
  check (Alcotest.float 0.0) "the probe itself" 0.0 (minor_words (fun () -> ()));
  check (Alcotest.float 0.0) "Sim.eval" 0.0 (minor_words (fun () -> Sim.eval nl s words));
  check (Alcotest.float 0.0) "N.fanouts, built" 0.0 (minor_words (fun () -> ignore (N.fanouts nl)));
  check (Alcotest.float 0.0) "Sim.eval_gate" 0.0
    (minor_words (fun () ->
         for n = 0 to N.num_nodes nl - 1 do
           Sim.eval_gate nl s n
         done));
  let t = Fsim.create nl in
  Sim.eval nl t.Fsim.store words;
  List.iter
    (fun (name, fault) ->
      (* the engine keeps a live list per [remaining] array, so each call
         re-arms the fault with the other of two arrays *)
      let faults = [| fault |] and arms = [| [| true |]; [| true |] |] in
      let turn = ref 0 in
      let drop () =
        let remaining = arms.(!turn) in
        turn := 1 - !turn;
        ignore (Fsim.drop_detected t faults remaining)
      in
      check (Alcotest.float 0.0) name 0.0 (minor_words drop);
      check Alcotest.bool (name ^ " dropped") false (arms.(0).(0) || arms.(1).(0)))
    [
      ("stem fault dropped", { Fault.site = Fault.Output and2; stuck = false });
      ("branch fault dropped", { Fault.site = Fault.Input (xor3, 1); stuck = true });
    ]

(* --- the schedule against the id-order sweep of [Sim_ref] --- *)

(* [Sim.eval] into [s] leaves every node's word as [Sim_ref] computes it *)
let matches_reference nl s words =
  Sim.eval nl s words;
  let want = Sim_ref.eval nl words in
  let ok = ref true in
  Array.iteri (fun n w -> if not (Sim.word_is s n w) then ok := false) want;
  !ok

let random_words rng nl = Array.init (N.num_inputs nl) (fun _ -> Prng.next64 rng)

(* three pattern words on one reused store *)
let eval_matches_reference nl ~aux =
  let rng = Prng.create aux and s = Sim.store nl in
  List.for_all (fun () -> matches_reference nl s (random_words rng nl)) [ (); (); () ]

let prop_eval_matches_reference =
  Prop.netlist_with_seed ~count:60 "Sim.eval matches the id-order reference"
    eval_matches_reference

let prop_eval_matches_reference_wide =
  Prop.to_alcotest ~count:60 ~name:"Sim.eval matches the id-order reference on wide gates"
    ~gen:(Gen.pair Gen.wide_netlist (Gen.int_range 0 0x3FFFFFFF))
    ~print:(fun (nl, aux) ->
      Printf.sprintf "aux %d\n%s" aux (Orap_netlist.Bench_format.print nl))
    (fun (nl, aux) -> eval_matches_reference nl ~aux)

(* Every class of the schedule: constants, a MUX, each associative kind
   with one, two and four fanins, a fanin read twice, and a NOT -> BUF ->
   NOT -> BUF chain, where levels that do not count BUF and NOT would run
   each BUF before the NOT it reads *)
let every_class_netlist () =
  let b = N.Builder.create () in
  let x = Array.init 4 (fun _ -> N.Builder.add_input b) in
  let gate k fan =
    let n = N.Builder.add_node b k fan in
    N.Builder.mark_output b n;
    n
  in
  let c0 = gate Gate.Const0 [||] and c1 = gate Gate.Const1 [||] in
  let m = gate Gate.Mux [| x.(0); c1; x.(2) |] in
  List.iter
    (fun k ->
      List.iter (fun fan -> ignore (gate k fan))
        [ [| m |]; [| x.(1); c0 |]; [| x.(0); x.(0) |]; [| x.(1); m; x.(3); x.(1) |] ])
    Gate.[ And; Nand; Or; Nor; Xor; Xnor ];
  let chain = ref x.(3) in
  List.iter (fun k -> chain := gate k [| !chain |]) Gate.[ Not; Buf; Not; Buf ];
  ignore (gate Gate.And [| !chain; x.(2) |]);
  N.Builder.finish b

let test_every_class () =
  let nl = every_class_netlist () in
  let s = Sim.store nl in
  List.iter
    (fun words -> check Alcotest.bool "every word as the reference" true (matches_reference nl s words))
    [
      [| 0xF0F0F0F0F0F0F0F0L; 0xCCCCCCCCCCCCCCCCL; 0xAAAAAAAAAAAAAAAAL; 0xFF00FF00FF00FF00L |];
      [| 0L; -1L; 0L; -1L |];
      [| -1L; 0L; -1L; 0L |];
    ]

(* a store made for the larger of two netlists serves both, in turn *)
let test_store_shared_across_netlists () =
  let small = random_netlist ~inputs:6 ~outputs:3 ~gates:40 31 in
  let large = random_netlist ~inputs:12 ~outputs:6 ~gates:300 32 in
  let s = Sim.store large and rng = Prng.create 33 in
  List.iter
    (fun nl ->
      check Alcotest.bool "every word as the reference" true
        (matches_reference nl s (random_words rng nl)))
    [ small; large; small; large ]

(* two domains evaluate one fresh netlist at once, so both may build its
   schedule; each reads the reference words *)
let test_two_domains_one_netlist () =
  let nl = random_netlist ~inputs:16 ~outputs:8 ~gates:2000 34 in
  let words = random_words (Prng.create 35) nl in
  let run () =
    let s = Sim.store nl in
    Sim.eval nl s words;
    Array.init (N.num_nodes nl) (Sim.word s)
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let want = Sim_ref.eval nl words in
  check Alcotest.bool "first domain" true (Domain.join d1 = want);
  check Alcotest.bool "second domain" true (Domain.join d2 = want)

(* --- Hamming --- *)

let shared_config nl = (nl, [||])

let test_hamming_self_zero () =
  let nl = random_netlist 11 in
  let c = shared_config nl in
  check (Alcotest.float 1e-9) "self distance" 0.0
    (Hamming.distance ~words:8 c c)

let test_hamming_complement_one () =
  (* circuit vs itself with all outputs inverted: HD = 1 *)
  let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:30 13 in
  let b = N.Builder.create () in
  let map = Array.make (N.num_nodes nl) (-1) in
  let map = N.copy_into b nl map in
  Array.iter
    (fun o -> N.Builder.mark_output b (N.Builder.add_node b Gate.Not [| map.(o) |]))
    (N.outputs nl);
  let inv = N.Builder.finish b in
  check (Alcotest.float 1e-9) "complement distance" 1.0
    (Hamming.distance ~words:8 (shared_config nl) (shared_config inv))

let test_hamming_symmetric () =
  let a = random_netlist ~inputs:6 ~outputs:4 ~gates:30 17 in
  let b = random_netlist ~inputs:6 ~outputs:4 ~gates:30 18 in
  let d1 = Hamming.distance ~seed:3 ~words:16 (shared_config a) (shared_config b) in
  let d2 = Hamming.distance ~seed:3 ~words:16 (shared_config b) (shared_config a) in
  check (Alcotest.float 1e-9) "symmetric" d1 d2

let test_hamming_fixed_binding () =
  (* fix one input at both polarities: only matching patterns compared *)
  let b = N.Builder.create () in
  let x = N.Builder.add_input b in
  let y = N.Builder.add_input b in
  let o = N.Builder.add_node b Gate.Xor [| x; y |] in
  N.Builder.mark_output b o;
  let nl = N.Builder.finish b in
  let cfg v = (nl, [| v |]) in
  check (Alcotest.float 1e-9) "same fixing -> 0" 0.0
    (Hamming.distance ~words:4 (cfg true) (cfg true));
  check (Alcotest.float 1e-9) "opposite fixing -> 1" 1.0
    (Hamming.distance ~words:4 (cfg true) (cfg false))

let test_equal_exhaustive () =
  let nl = random_netlist ~inputs:8 ~outputs:4 ~gates:40 23 in
  check Alcotest.bool "self equal" true (Equiv.exhaustive_equiv nl nl = Equiv.Equivalent);
  (* distinct circuits very unlikely equal *)
  let other = random_netlist ~inputs:8 ~outputs:4 ~gates:40 24 in
  check Alcotest.bool "different" false
    (Equiv.exhaustive_equiv nl other = Equiv.Equivalent)

let prop_distance_in_unit_interval =
  Prop.to_alcotest ~count:50 ~name:"distance lies in [0,1]"
    ~gen:
      (Gen.pair
         (Gen.benchgen_netlist ~inputs:5 ~outputs:3 ~gates:25)
         (Gen.benchgen_netlist ~inputs:5 ~outputs:3 ~gates:25))
    (fun (a, b) ->
      let d = Hamming.distance ~words:4 (shared_config a) (shared_config b) in
      d >= 0.0 && d <= 1.0)

(* a circuit against a one-gate mutant of itself: equivalent exactly when
   512 random patterns show no difference.  With at most 5 inputs a
   distinguishing pattern is missed with probability below 1e-7 *)
let prop_exhaustive_matches_distance_zero =
  Prop.to_alcotest ~count:25 ~name:"exhaustive equality iff distance 0"
    ~gen:
      (Gen.bind (Gen.netlist ~params:Gen.tiny_params ()) (fun a ->
           Gen.map (fun b -> (a, b)) (Gen.mutant a)))
    (fun (a, b) ->
      Equiv.exhaustive_equiv a b = Equiv.Equivalent
      = (Hamming.distance ~words:8 (shared_config a) (shared_config b) = 0.0))

let suite =
  ( "sim",
    [
      tc "prng determinism" `Quick test_prng_deterministic;
      tc "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
      tc "prng int range" `Quick test_prng_int_range;
      tc "prng float range" `Quick test_prng_float_range;
      tc "prng bool balance" `Quick test_prng_bool_balance;
      tc "Prng stream pinned" `Quick test_prng_pinned;
      tc "popcount64" `Quick test_popcount;
      tc "word vs single-pattern agreement" `Quick test_word_vs_bool_agree;
      tc "word kernels allocate nothing" `Quick test_kernels_allocate_nothing;
      prop_eval_matches_reference;
      prop_eval_matches_reference_wide;
      tc "Sim.eval runs every schedule class" `Quick test_every_class;
      tc "one store across two netlists" `Quick test_store_shared_across_netlists;
      tc "two domains evaluate one fresh netlist" `Quick test_two_domains_one_netlist;
      tc "hamming self = 0" `Quick test_hamming_self_zero;
      tc "hamming complement = 1" `Quick test_hamming_complement_one;
      tc "hamming symmetric" `Quick test_hamming_symmetric;
      tc "hamming fixed bindings" `Quick test_hamming_fixed_binding;
      tc "exhaustive equivalence" `Quick test_equal_exhaustive;
      prop_distance_in_unit_interval;
      prop_exhaustive_matches_distance_zero;
    ] )
