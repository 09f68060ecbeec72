(** Bypass attack [12] and the real ISCAS s27 benchmark end to end. *)

open Util
module N = Orap_netlist.Netlist
module Bench_format = Orap_netlist.Bench_format
module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Bypass = Orap_attacks.Bypass
module Budget = Orap_attacks.Budget

let base = random_netlist ~inputs:18 ~outputs:12 ~gates:150 113

let test_bypass_beats_sarlock () =
  (* comparator spans all 18 inputs so the trap inputs are single patterns *)
  let lk = Orap_locking.Sarlock.lock base ~key_size:18 in
  let r = Bypass.run lk (Oracle.functional lk) in
  check Alcotest.bool "few patches" true (List.length r.Bypass.patches <= 2);
  match Budget.recovered r.Bypass.outcome with
  | None -> Alcotest.fail "expected a patched netlist"
  | Some patched ->
    (* the patched circuit equals the original on random patterns *)
    check Alcotest.bool "function restored" true
      (equivalent_on_random base patched);
    check Alcotest.bool "modest overhead" true
      (Bypass.patch_overhead lk r < 4 * N.gate_count base)

let test_bypass_collapses_on_weighted () =
  (* high-corruption locking defeats bypass in one of two ways: the
     disagreement enumeration blows the budget, or (when the two wrong keys
     happen to be equivalent — weighted locking's wrong keys form huge
     equivalence classes) the "patched" circuit is simply wrong *)
  let lk = Orap_locking.Weighted.lock base ~key_size:12 ~ctrl_inputs:3 in
  let r = Bypass.run ~max_patches:16 lk (Oracle.functional lk) in
  match Budget.recovered r.Bypass.outcome with
  | None ->
    check Alcotest.bool "budget exceeded" true
      (match r.Bypass.outcome with Budget.Exhausted _ -> true | _ -> false)
  | Some patched ->
    check Alcotest.bool "patched circuit is not the original" false
      (equivalent_on_random base patched)

let test_bypass_vs_orap_is_useless () =
  (* behind OraP the oracle answers locked: the patched circuit (if any)
     reproduces the locked function, not the original *)
  let lk = Orap_locking.Sarlock.lock base ~key_size:10 in
  let design =
    Orap.protect ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:6 ()) lk
  in
  let chip = Chip.create design in
  Chip.unlock chip;
  let r = Bypass.run lk (Oracle.scan_chip chip) in
  match Budget.recovered r.Bypass.outcome with
  | None -> () (* gave up: also a failure for the attacker *)
  | Some patched ->
    check Alcotest.bool "not the original function" false
      (equivalent_on_random base patched)

(* --- s27 --- *)

let s27 () = Bench_format.parse_file (data_file "s27.bench")

let test_s27_parses () =
  let src = s27 () in
  let nl = src.Bench_format.netlist in
  check Alcotest.int "4 PIs + 3 FF outputs" 7 (N.num_inputs nl);
  check Alcotest.int "1 PO + 3 FF inputs" 4 (N.num_outputs nl);
  check Alcotest.int "3 flip-flops" 3 (List.length src.Bench_format.flip_flops);
  check Alcotest.int "8 gates w/o inverters" 8 (N.gate_count nl);
  N.validate nl

let test_s27_end_to_end () =
  let src = s27 () in
  let nl = src.Bench_format.netlist in
  (* tiny circuit, tiny key: lock, protect, unlock, verify oracle denial *)
  let lk = Orap_locking.Random_ll.lock nl ~key_size:4 in
  let design =
    Orap.protect
      ~config:{ (Orap.default_config ~kind:Orap.Basic ~num_ffs:3 ()) with Orap.seed = 2 }
      lk
  in
  let chip = Chip.create design in
  Chip.unlock chip;
  check Alcotest.bool "unlocks" true
    (Chip.key_register chip = lk.Locked.correct_key);
  (* exhaustive check: scanned responses never all match on every input *)
  let oracle = Oracle.scan_chip chip in
  let reference = Oracle.functional lk in
  let width = Orap.num_ext_inputs design + Orap.num_ffs design in
  let corrupted = ref 0 in
  for m = 0 to (1 lsl width) - 1 do
    let x = Array.init width (fun i -> (m lsr i) land 1 = 1) in
    if Oracle.query oracle x <> Oracle.query reference x then incr corrupted
  done;
  check Alcotest.bool "locked responses exist" true (!corrupted > 0)

(* the locked-netlist layout (inputs, key<j>, the copy with its key logic)
   byte for byte: MD5 digests of the .bench text of each scheme at the
   CLI's default sizes on s27, and of the removal attack's rebuild *)
let test_s27_locked_layouts_pinned () =
  let nl = (s27 ()).Bench_format.netlist in
  let digest nl = Digest.to_hex (Digest.string (Bench_format.print nl)) in
  let bits k = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") k)) in
  let random = Orap_locking.Random_ll.lock nl ~key_size:8 in
  List.iter
    (fun ((lk : Locked.t), (technique, key, md5)) ->
      check Alcotest.string "technique" technique lk.Locked.technique;
      check Alcotest.string (technique ^ " key") key (bits lk.Locked.correct_key);
      check Alcotest.string (technique ^ " netlist") md5 (digest lk.Locked.netlist))
    [
      ( Orap_locking.Weighted.lock nl ~key_size:16 ~ctrl_inputs:3,
        ("weighted(k=16,w=3)", "0000010001101101", "5c6589996ebac0c89c43c8a93ce02647") );
      (random, ("random(k=8)", "01000111", "73fb8172fadfe33fdbed6c071408aaba"));
      ( Orap_locking.Sarlock.lock nl ~key_size:7,
        ("sarlock(k=7)", "1111100", "b8a6f1d7bf36b89ee9e6219ba75ea36f") );
      ( Orap_locking.Antisat.lock nl ~key_size:14,
        ("antisat(n=7)", "00010100001010", "0b5c97d6a2a0505260f7470ab89a50ac") );
    ];
  let r = Orap_attacks.Removal.attack random in
  check Alcotest.int "key gates removed" 8 r.Orap_attacks.Removal.removed_key_gates;
  check Alcotest.string "removal netlist" "9011133196efb6de214f2f028224a33f"
    (digest r.Orap_attacks.Removal.netlist)

let test_s27_atpg_full_coverage () =
  let nl = (s27 ()).Bench_format.netlist in
  let r = Orap_atpg.Atpg.run ~backtrack_limit:1000 nl in
  check Alcotest.int "no aborts on s27" 0 r.Orap_atpg.Atpg.aborted;
  check Alcotest.bool "high coverage" true (Orap_atpg.Atpg.coverage r > 95.0)

let suite =
  ( "bypass+s27",
    [
      tc "bypass beats SARLock" `Quick test_bypass_beats_sarlock;
      tc "bypass collapses on weighted locking" `Quick test_bypass_collapses_on_weighted;
      tc "bypass useless behind OraP" `Quick test_bypass_vs_orap_is_useless;
      tc "s27 parses" `Quick test_s27_parses;
      tc "s27 lock/protect/deny end to end" `Quick test_s27_end_to_end;
      tc "s27 full ATPG" `Quick test_s27_atpg_full_coverage;
      tc "s27 locked layouts pinned" `Quick test_s27_locked_layouts_pinned;
    ] )
