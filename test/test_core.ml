open Util
module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Weighted = Orap_locking.Weighted
module Random_ll = Orap_locking.Random_ll
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Threat = Orap_core.Threat
module Scan = Orap_dft.Scan
module Prng = Orap_sim.Prng

let fixture kind =
  let nl = random_netlist ~inputs:40 ~outputs:30 ~gates:320 77 in
  let lk = Weighted.lock nl ~key_size:24 ~ctrl_inputs:3 in
  let design =
    Orap.protect
      ~config:{ (Orap.default_config ~kind ~num_ffs:14 ()) with Orap.seed = 5 }
      lk
  in
  (lk, design)

let test_unlock_basic () =
  let lk, design = fixture Orap.Basic in
  let chip = Chip.create design in
  Chip.unlock chip;
  check Alcotest.bool "correct key" true
    (Chip.key_register chip = lk.Locked.correct_key)

let test_unlock_modified () =
  let lk, design = fixture Orap.Modified in
  let chip = Chip.create design in
  Chip.unlock chip;
  check Alcotest.bool "correct key" true
    (Chip.key_register chip = lk.Locked.correct_key)

let test_scan_enable_clears_key () =
  let lk, design = fixture Orap.Basic in
  let chip = Chip.create design in
  Chip.unlock chip;
  check Alcotest.bool "key loaded" true
    (Chip.key_register chip = lk.Locked.correct_key);
  Chip.set_scan_enable chip true;
  check Alcotest.bool "key cleared" true
    (Array.for_all not (Chip.key_register chip));
  (* falling edge does not re-fire; key remains whatever is shifted *)
  Chip.set_scan_enable chip false;
  check Alcotest.bool "still cleared" true
    (Array.for_all not (Chip.key_register chip))

let test_functional_cycle_matches_locked_eval () =
  let lk, design = fixture Orap.Basic in
  let chip = Chip.create design in
  Chip.unlock chip;
  let rng = Prng.create 31 in
  for _ = 1 to 10 do
    let ext = Prng.bool_array rng (Orap.num_ext_inputs design) in
    let ffs_before = Chip.ff_state chip in
    let ext_outs = Chip.functional_cycle chip ~ext_inputs:ext in
    let full =
      Locked.eval lk ~key:lk.Locked.correct_key
        ~inputs:(Array.append ext ffs_before)
    in
    let expect_ext, expect_ffs = Orap.split_outputs design full in
    check Alcotest.bool "external outputs" true (ext_outs = expect_ext);
    check Alcotest.bool "next state" true (Chip.ff_state chip = expect_ffs)
  done

let test_scan_roundtrip_state () =
  let _, design = fixture Orap.Basic in
  let chip = Chip.create design in
  let rng = Prng.create 9 in
  let state = Prng.bool_array rng (Orap.num_ffs design) in
  let ext = Prng.bool_array rng (Orap.num_ext_inputs design) in
  let _, captured = Chip.scan_test chip ~state ~ext_inputs:ext in
  (* the captured state is the locked circuit's next-state under key 0 *)
  let key0 = Array.make (Orap.key_size design) false in
  let full =
    Locked.eval design.Orap.locked ~key:key0 ~inputs:(Array.append ext state)
  in
  let _, expect = Orap.split_outputs design full in
  check Alcotest.bool "locked capture" true (captured = expect)

let test_scan_oracle_locked_responses () =
  let lk, design = fixture Orap.Basic in
  let chip = Chip.create design in
  Chip.unlock chip;
  let oracle = Oracle.scan_chip chip in
  let reference = Oracle.functional lk in
  let rng = Prng.create 12 in
  let width = Orap.num_ext_inputs design + Orap.num_ffs design in
  let corrupted = ref 0 in
  for _ = 1 to 16 do
    let x = Prng.bool_array rng width in
    if Oracle.query oracle x <> Oracle.query reference x then incr corrupted
  done;
  check Alcotest.bool "responses locked" true (!corrupted > 12);
  check Alcotest.int "query counting" 16 (Oracle.num_queries oracle)

let test_unprotected_scan_access_would_leak () =
  (* the same query, answered functionally, is correct — the contrast OraP
     exists for *)
  let lk, _ = fixture Orap.Basic in
  let oracle = Oracle.functional lk in
  let rng = Prng.create 12 in
  let x = Prng.bool_array rng lk.Locked.num_regular_inputs in
  check Alcotest.bool "functional oracle correct" true
    (Oracle.query oracle x = Locked.eval lk ~key:lk.Locked.correct_key ~inputs:x)

let test_hardware_accounting () =
  let _, design = fixture Orap.Basic in
  let h = Orap.hardware design in
  check Alcotest.int "pulse gens" 24 h.Orap.pulse_gen_gates;
  check Alcotest.int "reseed xors" 24 h.Orap.reseed_xors;
  check Alcotest.int "tap xors" 2 h.Orap.tap_xors;
  check Alcotest.int "and-node units" (24 + (3 * 26)) (Orap.hardware_and_nodes h);
  (* a 32-bit key register: 32 reseeding XORs and 3 tap XORs *)
  let nl = random_netlist ~inputs:40 ~outputs:30 ~gates:320 77 in
  let h32 = Orap.hardware (Orap.protect (Random_ll.lock nl ~key_size:32)) in
  check Alcotest.int "32-bit xors" 35 (h32.Orap.reseed_xors + h32.Orap.tap_xors)

let prop_protect_reaches_key =
  Prop.to_alcotest ~count:25 ~name:"unlock schedule reaches arbitrary keys"
    ~gen:(Gen.int_range 0 10_000) ~print:string_of_int
    (fun seed ->
      let rng = Prng.create seed in
      let key_size = 8 + Prng.int rng 89 in
      let kind = if Prng.bool rng then Orap.Basic else Orap.Modified in
      let num_ffs =
        Prng.int rng 16 + if kind = Orap.Modified then 1 else 0
      in
      let nl = random_netlist ~inputs:24 ~outputs:16 ~gates:200 seed in
      let lk = Random_ll.lock ~seed nl ~key_size in
      let design =
        Orap.protect
          ~config:{ (Orap.default_config ~kind ~num_ffs ()) with Orap.seed }
          lk
      in
      let chip = Chip.create design in
      Chip.unlock chip;
      Chip.key_register chip = lk.Locked.correct_key)

let test_unlock_cycles_positive () =
  let _, basic = fixture Orap.Basic in
  let _, modified = fixture Orap.Modified in
  check Alcotest.bool "basic cycles" true (Orap.unlock_cycles basic > 0);
  check Alcotest.bool "modified has two phases" true
    (Orap.unlock_cycles modified > 12)

let test_chain_contains_all_cells () =
  let _, design = fixture Orap.Basic in
  check Alcotest.int "chain length" (24 + 14) (Scan.length design.Orap.chain)

(* --- threat scenarios: the paper's verdict table --- *)

let test_scenario_a_steals_key_but_detectable () =
  let _, design = fixture Orap.Basic in
  let o = Threat.run design Threat.Suppress_cell_resets in
  check Alcotest.bool "oracle obtained" true o.Threat.oracle_obtained;
  check Alcotest.bool "payload scales with key" true
    (o.Threat.payload_nand2 = 12.0);
  check Alcotest.bool "defeated by side channel" true (Threat.defeated o)

let test_scenario_b () =
  let _, design = fixture Orap.Basic in
  let o = Threat.run design Threat.Exclude_lfsr_from_scan in
  check Alcotest.bool "oracle obtained" true o.Threat.oracle_obtained;
  check Alcotest.bool "detectable" true o.Threat.detectable

let test_scenario_c () =
  let _, design = fixture Orap.Basic in
  let o = Threat.run design Threat.Shadow_register in
  check Alcotest.bool "oracle obtained" true o.Threat.oracle_obtained;
  check Alcotest.bool "big payload" true (o.Threat.payload_nand2 >= 24.0 *. 9.0)

let test_scenario_d () =
  let _, design = fixture Orap.Basic in
  let o = Threat.run design Threat.Xor_tree_key in
  check Alcotest.bool "oracle obtained" true o.Threat.oracle_obtained;
  check Alcotest.bool "largest payload" true (o.Threat.payload_nand2 > 200.0)

let test_scenario_e_basic_vs_modified () =
  let _, basic = fixture Orap.Basic in
  let ob = Threat.run basic Threat.Freeze_state_ffs in
  check Alcotest.bool "succeeds on basic scheme" true ob.Threat.oracle_obtained;
  check Alcotest.bool "stealthy" false ob.Threat.detectable;
  check Alcotest.bool "basic scheme loses" false (Threat.defeated ob);
  let _, modified = fixture Orap.Modified in
  let om = Threat.run modified Threat.Freeze_state_ffs in
  check Alcotest.bool "fails on modified scheme" false om.Threat.oracle_obtained;
  check Alcotest.bool "modified scheme wins" true (Threat.defeated om)

let test_honest_chip_has_no_trojan_effects () =
  let lk, design = fixture Orap.Basic in
  let chip = Chip.create design in
  Chip.unlock chip;
  (* scan dump of an honest chip reveals a cleared key register *)
  let dump = Chip.scan_dump chip in
  Array.iter
    (fun (cell, bit) ->
      match cell with
      | Scan.Key _ -> check Alcotest.bool "key bit cleared" false bit
      | Scan.State _ -> ())
    dump;
  ignore lk

let test_interleaving_raises_bypass_cost () =
  let nl = random_netlist ~inputs:40 ~outputs:30 ~gates:320 77 in
  let lk = Weighted.lock nl ~key_size:24 ~ctrl_inputs:3 in
  let mk style =
    Orap.protect
      ~config:
        { (Orap.default_config ~kind:Orap.Basic ~num_ffs:14 ()) with
          Orap.chain_style = style; seed = 5 }
      lk
  in
  let inter = Threat.payload (mk Scan.Interleaved) Threat.Exclude_lfsr_from_scan in
  let grouped = Threat.payload (mk Scan.Key_first) Threat.Exclude_lfsr_from_scan in
  check Alcotest.bool "guideline works" true (inter > grouped)

(* --- the OraP hardware model pinned --- *)

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')
let md5 s = Digest.to_hex (Digest.string s)

let schedule_digest design =
  md5
    (String.concat ";"
       (List.map
          (fun c ->
            (match c.Orap.memory with None -> "-" | Some b -> bits b)
            ^ if c.Orap.feedback then "+" else "")
          design.Orap.schedule))

(* key register and FFs after unlock, 12 scan-oracle answers, the raw dump,
   one keyed scan test and, under a Trojan, its scenario's outcome *)
let chip_text design trojan =
  let chip = Chip.create ?trojan design in
  Chip.unlock chip;
  let buf = Buffer.create 4096 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  add (bits (Chip.key_register chip));
  add (bits (Chip.ff_state chip));
  let oracle = Oracle.scan_chip chip in
  let rng = Prng.create 41 in
  let width = Orap.num_ext_inputs design + Orap.num_ffs design in
  for _ = 1 to 12 do
    add (bits (Oracle.query oracle (Prng.bool_array rng width)))
  done;
  Array.iter
    (fun (cell, b) ->
      add
        ((match cell with
         | Scan.Key i -> "k" ^ string_of_int i
         | Scan.State j -> "s" ^ string_of_int j)
        ^ if b then "1" else "0"))
    (Chip.scan_dump chip);
  let key = Prng.bool_array rng (Orap.key_size design) in
  let state = Prng.bool_array rng (Orap.num_ffs design) in
  let ext = Prng.bool_array rng (Orap.num_ext_inputs design) in
  let outs, captured = Chip.scan_test ~key chip ~state ~ext_inputs:ext in
  add (bits outs);
  add (bits captured);
  add (bits (Chip.key_register chip));
  Option.iter
    (fun sc ->
      let o = Threat.run design sc in
      add
        (Printf.sprintf "%b %h" o.Threat.oracle_obtained o.Threat.payload_nand2))
    trojan;
  Buffer.contents buf

let chips_digest design =
  md5
    (String.concat "#"
       (List.map (chip_text design)
          (None :: List.map Option.some Threat.all_scenarios)))

(* (fixture/scheme/chain, schedule MD5, chips MD5), recorded before the
   schedule became one cycle list and the Trojans one variant *)
let pinned =
  [
    ("f1/basic/key_first", "f2833c9802ffd9c004a854e04c351b2d", "ab99d5ec92f7f469c57d4c824a8a21ef");
    ("f1/basic/interleaved", "f2833c9802ffd9c004a854e04c351b2d", "d09bdbb4bb89cb7c4ab90354402e7b00");
    ("f1/basic/key_last", "f2833c9802ffd9c004a854e04c351b2d", "2f653b1c25ab8e51bae84c6201546352");
    ("f1/modified/key_first", "ef4dff704600b090b8d0de80cc2e1329", "dc843c05be76f37bf54c4ee433cf0eb0");
    ("f1/modified/interleaved", "ef4dff704600b090b8d0de80cc2e1329", "2c8c015124b6ce68e0aff547ab0239e7");
    ("f1/modified/key_last", "ef4dff704600b090b8d0de80cc2e1329", "2de184a66ae483991f3569a55b729f72");
    ("f2/basic/key_first", "49807d4dab571ba6576acdbd5e20b941", "ed1ac61e0771efad1c968ba6afb56028");
    ("f2/basic/interleaved", "49807d4dab571ba6576acdbd5e20b941", "a0d5790739c021c2a349ed9ffa4bd335");
    ("f2/basic/key_last", "49807d4dab571ba6576acdbd5e20b941", "1bfc59e1f6101c4a5bb69013481a4adb");
    ("f2/modified/key_first", "af4f2e9415f2fa0d2f65ebe281284b86", "6e42cb382f78004c13214e51b9396d02");
    ("f2/modified/interleaved", "af4f2e9415f2fa0d2f65ebe281284b86", "da887a483e1f4630d5e04c3fbdfab87f");
    ("f2/modified/key_last", "af4f2e9415f2fa0d2f65ebe281284b86", "fed6feb5d3864d5a491410bdc04ac826");
  ]

let test_hardware_model_pinned () =
  let fixtures =
    [
      ("f1", random_netlist ~inputs:40 ~outputs:30 ~gates:320 77, 24, 3, 14, 5);
      ("f2", random_netlist ~inputs:24 ~outputs:18 ~gates:200 13, 20, 2, 9, 2020);
    ]
  in
  let got =
    List.concat_map
      (fun (name, nl, key_size, ctrl_inputs, num_ffs, seed) ->
        let lk = Weighted.lock nl ~key_size ~ctrl_inputs in
        List.concat_map
          (fun (kname, kind) ->
            List.map
              (fun (sname, chain_style) ->
                let d =
                  Orap.protect
                    ~config:
                      { (Orap.default_config ~kind ~num_ffs ()) with
                        Orap.chain_style; seed }
                    lk
                in
                ( String.concat "/" [ name; kname; sname ],
                  schedule_digest d,
                  chips_digest d ))
              [ ("key_first", Scan.Key_first); ("interleaved", Scan.Interleaved);
                ("key_last", Scan.Key_last) ])
          [ ("basic", Orap.Basic); ("modified", Orap.Modified) ])
      fixtures
  in
  List.iter2
    (fun (label, sched, chips) (label', sched', chips') ->
      check Alcotest.string "design" label label';
      check Alcotest.string (label ^ " schedule") sched sched';
      check Alcotest.string (label ^ " chips") chips chips')
    pinned got

let suite =
  ( "core",
    [
      tc "basic unlock" `Quick test_unlock_basic;
      tc "modified unlock" `Quick test_unlock_modified;
      tc "scan enable clears key (Fig.1)" `Quick test_scan_enable_clears_key;
      tc "functional cycles" `Quick test_functional_cycle_matches_locked_eval;
      tc "scan capture is locked" `Quick test_scan_roundtrip_state;
      tc "scan oracle answers locked" `Quick test_scan_oracle_locked_responses;
      tc "functional oracle contrast" `Quick test_unprotected_scan_access_would_leak;
      tc "hardware accounting" `Quick test_hardware_accounting;
      tc "unlock cycle counts" `Quick test_unlock_cycles_positive;
      prop_protect_reaches_key;
      tc "chain covers all cells" `Quick test_chain_contains_all_cells;
      tc "scenario (a)" `Quick test_scenario_a_steals_key_but_detectable;
      tc "scenario (b)" `Quick test_scenario_b;
      tc "scenario (c)" `Quick test_scenario_c;
      tc "scenario (d)" `Quick test_scenario_d;
      tc "scenario (e): basic vs modified" `Quick test_scenario_e_basic_vs_modified;
      tc "honest chip leaks nothing" `Quick test_honest_chip_has_no_trojan_effects;
      tc "interleaving guideline" `Quick test_interleaving_raises_bypass_cost;
      tc "hardware model pinned" `Quick test_hardware_model_pinned;
    ] )
