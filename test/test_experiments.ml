open Util
module E = Orap_experiments
module Benchgen = Orap_benchgen.Benchgen
module Runner = Orap_runner.Runner

(* Every golden row decodes to a row that encodes back to the same bytes.
   The first golden row, one field short, one field over, and with each
   [(index, value)] of [bad] swapped in, is rejected. *)
let check_codec (c : _ Runner.codec) golden ~bad =
  List.iter
    (fun s ->
      match c.Runner.decode s with
      | None -> Alcotest.failf "golden row does not decode: %S" s
      | Some r -> check Alcotest.string "encode (decode s)" s (c.Runner.encode r))
    golden;
  let row = List.hd golden in
  let fields = Runner.unfields row in
  let join = String.concat "\t" in
  let swap (i, v) = join (List.mapi (fun j f -> if j = i then v else f) fields) in
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "rejects %S" s) true
        (c.Runner.decode s = None))
    (join (List.tl fields) :: (row ^ "\t0") :: List.map swap bad)

let tiny_t1_params =
  { E.Table1.quick_params with E.Table1.scale = 32; hd_words = 16; hd_keys = 2 }

let tiny_t2_params =
  { E.Table2.quick_params with E.Table2.scale = 48; random_words = 8 }

let small_profiles =
  List.filter
    (fun p -> List.mem p.Benchgen.name [ "s38417"; "b20" ])
    Benchgen.table1_profiles

let test_table1_shape () =
  let rows = E.Table1.run ~params:tiny_t1_params ~profiles:small_profiles () in
  check Alcotest.int "one row per profile" 2 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool "HD in band" true
        (r.E.Table1.hd_pct > 1.0 && r.E.Table1.hd_pct <= 55.0);
      check Alcotest.bool "area overhead positive" true (r.E.Table1.area_pct > 0.0);
      check Alcotest.bool "delay overhead non-negative" true
        (r.E.Table1.delay_pct >= 0.0))
    rows;
  let rendered = E.Report.render (E.Table1.report rows) in
  check Alcotest.bool "rendered" true (String.length rendered > 100)

(* Table I rows at scale 64 with the tiny HD params, recorded before the
   refactor support bound and allocation-free cut kernels landed: any change
   to synthesis results (including the leaf order of refactor cuts, which
   fixes the rebuilt structure) shows up here.  Wall-clock is not part of
   a row. *)
let golden_t1_rows =
  [
    "s38417/64\t136\t27\t64\t3\t0x1.e6d5a12f684bep+4\t0x1.a00af3addc681p+7\t0x1.33b13b13b13b1p+5";
    "s38584/64\t179\t27\t46\t3\t0x1.372b425ed097cp+5\t0x1.0840de6840de7p+7\t0x1.33b13b13b13b1p+5";
    "b17/64\t458\t23\t64\t3\t0x1.93d69bd37a6f4p+5\t0x1.dce15648bc41ap+5\t0x1.8p+4";
    "b20/64\t275\t8\t59\t3\t0x1.806c8p+5\t0x1.16b04325c53efp+7\t0x1.7878787878788p+4";
  ]

let test_table1_golden () =
  let params = { tiny_t1_params with E.Table1.scale = 64 } in
  let profiles =
    List.filter
      (fun p -> List.mem p.Benchgen.name [ "s38417"; "s38584"; "b17"; "b20" ])
      Benchgen.table1_profiles
  in
  let rows = E.Table1.run ~params ~profiles () in
  check
    Alcotest.(list string)
    "Table I rows" golden_t1_rows
    (List.map E.Table1.row_codec.Runner.encode rows);
  (* gates, HD *)
  check_codec E.Table1.row_codec golden_t1_rows ~bad:[ (1, "x"); (5, "x") ]

let test_table2_shape () =
  let rows = E.Table2.run ~params:tiny_t2_params ~profiles:small_profiles () in
  List.iter
    (fun r ->
      check Alcotest.bool "original coverage sane" true
        (r.E.Table2.original.E.Table2.fc_pct > 60.0);
      check Alcotest.bool "protected coverage sane" true
        (r.E.Table2.protected_.E.Table2.fc_pct > 60.0);
      check Alcotest.bool "faults counted" true
        (r.E.Table2.original.E.Table2.total_faults > 0))
    rows

(* Table II rows of the benchmark grid (scale 96, root seed 2020), recorded
   before PODEM's trail undo and the allocation-free fault simulator landed.
   b19's rows depend on the order in which PODEM breaks ties between
   D-frontier gates at equal distance to an output, so a change to that
   order shows up here.  Wall-clock is not part of a row. *)
let golden_t2_rows =
  [
    "s38417/96\t0x1.64029e71ec5bbp+6\t43\t391\t0x1.7917aecd40483p+6\t39\t681";
    "s38584/96\t0x1.6114dde68d7cbp+6\t59\t503\t0x1.7df2477e039c6p+6\t32\t709";
    "b17/96\t0x1.6255555555555p+6\t137\t1200\t0x1.80293c225cc75p+6\t60\t1490";
    "b18/96\t0x1.5dc9961e1667dp+6\t504\t3999\t0x1.6901b0510f32ep+6\t402\t4093";
    "b19/96\t0x1.7cbe7cd8be7cep+6\t391\t7956\t0x1.7fc74ad628c64p+6\t337\t8162";
    "b20/96\t0x1.510c1f604474fp+6\t113\t718\t0x1.75ee45dd96ae2p+6\t64\t982";
    "b21/96\t0x1.4f8e38e38e38ep+6\t116\t720\t0x1.740436c82a23dp+6\t68\t972";
    "b22/96\t0x1.3584f23f3740ep+6\t240\t1061\t0x1.73aa585b0e78p+6\t94\t1327";
  ]

let test_table2_golden () =
  let params = { E.Table2.quick_params with E.Table2.scale = 96; seed = 2020 } in
  let rows = E.Table2.run ~params () in
  check
    Alcotest.(list string)
    "Table II rows" golden_t2_rows
    (List.map E.Table2.row_codec.Runner.encode rows);
  (* original fault coverage, original red+abrt *)
  check_codec E.Table2.row_codec golden_t2_rows ~bad:[ (1, "x"); (2, "x") ]

let test_security_figs () =
  let fx = E.Security.make_fixture ~num_gates:300 ~key_size:24 () in
  let f1 = E.Security.fig1 fx in
  check Alcotest.bool "F1 unlock" true f1.E.Security.unlock_key_correct;
  check Alcotest.bool "F1 clear" true f1.E.Security.key_cleared_on_scan;
  check Alcotest.bool "F1 locked scan" true f1.E.Security.scan_responses_locked;
  let f2 = E.Security.fig2 () in
  check Alcotest.bool "F2" true
    (f2.E.Security.fires_on_rising_edge && f2.E.Security.silent_on_level_hold
    && f2.E.Security.silent_on_falling_edge);
  let f3 = E.Security.fig3 fx in
  check Alcotest.bool "F3 honest" true f3.E.Security.honest_unlock_correct;
  check Alcotest.bool "F3 freeze breaks" true f3.E.Security.frozen_ffs_break_unlock;
  check Alcotest.bool "F3 basic immune" true f3.E.Security.responses_differ_from_basic

(* Attack-matrix rows (attack, oracle, verdict, iterations, queries) and
   the S3 test-response verdict on a small fixture, recorded before the five
   attacks shared one result record and one table.  Hill climbing recovers
   the key against the unprotected oracle here; every attack fails through
   the OraP scan oracle.  Wall-clock is not part of a row. *)
let golden_attack_matrix =
  [
    "SAT attack\tunprotected\tkey recovered (exact, HD 0%)\t1\t1";
    "AppSAT\tunprotected\tkey recovered (exact, HD 0%)\t1\t1";
    "Double DIP\tunprotected\tkey recovered (exact, HD 0%)\t2\t2";
    "Hill climbing\tunprotected\tkey recovered (exact, HD 0%)\t7\t48";
    "Key sensitization\tunprotected\tWRONG key (HD 26.5%)\t16\t16";
    "SAT attack\tOraP scan\tWRONG key (HD 18.4%)\t1\t1";
    "AppSAT\tOraP scan\tWRONG key (HD 18.4%)\t1\t1";
    "Double DIP\tOraP scan\tWRONG key (HD 18.4%)\t2\t2";
    "Hill climbing\tOraP scan\tWRONG key (HD 18.4%)\t6\t48";
    "Key sensitization\tOraP scan\tWRONG key (HD 26.5%)\t16\t16";
  ]

let test_attack_matrix_golden () =
  let fx = E.Security.make_fixture ~num_gates:200 ~key_size:16 () in
  let row r =
    String.concat "\t"
      [ r.E.Security.attack; r.E.Security.oracle_kind;
        Orap_attacks.Evaluate.to_string r.E.Security.verdict;
        string_of_int r.E.Security.iterations;
        string_of_int r.E.Security.queries ]
  in
  check
    Alcotest.(list string)
    "attack matrix rows" golden_attack_matrix
    (List.map row (E.Security.attack_matrix fx));
  check Alcotest.string "S3 verdict" "WRONG key (HD 18.4%)"
    (Orap_attacks.Evaluate.to_string
       (E.Security.hill_climb_on_test_responses fx))

(* The CI smoke grid (gates 80, key 8, noise 0/0.05, query budget 200, one
   trial, 32 iterations) over all five attacks, as canonical rows. *)
let smoke_params =
  {
    E.Robustness.default_params with
    E.Robustness.num_gates = 80;
    key_size = 8;
    noise_levels = [ 0.0; 0.05 ];
    query_budgets = [ 200 ];
    trials = 1;
    max_iterations = 32;
  }

let golden_robustness_rows =
  [
    "SAT attack\t0x0p+0\t200\t1\t1\t1\t0x0p+0\t0x1.08p+5\t0x0p+0\t1 exact";
    "SAT attack\t0x1.999999999999ap-5\t200\t1\t1\t0\t0x0p+0\t0x1.08p+5\t0x0p+0\t1 approx";
    "AppSAT\t0x0p+0\t200\t1\t1\t1\t0x0p+0\t0x1p+0\t0x0p+0\t1 exact";
    "AppSAT\t0x1.999999999999ap-5\t200\t1\t1\t1\t0x0p+0\t0x1p+0\t0x0p+0\t1 exact";
    "Double DIP\t0x0p+0\t200\t1\t1\t1\t0x0p+0\t0x1p+0\t0x0p+0\t1 exact";
    "Double DIP\t0x1.999999999999ap-5\t200\t1\t1\t1\t0x0p+0\t0x1p+0\t0x0p+0\t1 exact";
    "Hill climbing\t0x0p+0\t200\t1\t0\t0\t0x1.9p+4\t0x1.8p+5\t0x0p+0\t1 approx";
    "Hill climbing\t0x1.999999999999ap-5\t200\t1\t0\t0\t0x1.9p+4\t0x1.8p+5\t0x0p+0\t1 approx";
    "Key sensitization\t0x0p+0\t200\t1\t0\t0\t0x1.9p+3\t0x1p+3\t0x0p+0\t1 approx";
    "Key sensitization\t0x1.999999999999ap-5\t200\t1\t0\t0\t0x1.9p+3\t0x1p+3\t0x0p+0\t1 approx";
  ]

let test_robustness_golden () =
  check
    Alcotest.(list string)
    "robustness smoke rows" golden_robustness_rows
    (List.map E.Robustness.canonical (E.Robustness.run ~params:smoke_params ()));
  (* noise, query budget, key HD *)
  check_codec E.Robustness.row_codec golden_robustness_rows
    ~bad:[ (1, "x"); (2, "x"); (6, "x") ]

(* A cell id feeds the cell's FNV-1a key, hence its derived seed and its
   journal entry: one cell per attack, at the default parameters. *)
let golden_cell_ids =
  List.map
    (fun slug ->
      "robustness|gates=300|key=16|oracle=functional|trials=3|iters=256|wall=0x1.4p+3|confl=-|votes=1|validate=32|seed=1|attack="
      ^ slug ^ "|noise=0x1.999999999999ap-5|qb=200")
    [ "sat"; "appsat"; "ddip"; "hill"; "sens" ]

let test_cell_id_golden () =
  let p =
    { E.Robustness.default_params with
      E.Robustness.noise_levels = [ 0.05 ]; query_budgets = [ 200 ] }
  in
  check
    Alcotest.(list string)
    "cell ids" golden_cell_ids
    (List.map (E.Robustness.cell_id p) (E.Robustness.grid p))

(* The ten Trojan-table rows, encoded by [Trojan_table.row_codec]: scenario,
   scheme, oracle obtained, payload in NAND2 equivalents, detectable. *)
let golden_trojan_rows =
  [
    "(a) suppress per-cell reset\tbasic\ttrue\t0x1.8p+3\ttrue";
    "(b) exclude LFSR from scan\tbasic\ttrue\t0x1.ccp+5\ttrue";
    "(c) shadow key register\tbasic\ttrue\t0x1.bp+7\ttrue";
    "(d) XOR-tree key reconstruction\tbasic\ttrue\t0x1.248p+10\ttrue";
    "(e) freeze FFs during unlock\tbasic\ttrue\t0x1p+2\tfalse";
    "(a) suppress per-cell reset\tmodified\ttrue\t0x1.8p+3\ttrue";
    "(b) exclude LFSR from scan\tmodified\ttrue\t0x1.ccp+5\ttrue";
    "(c) shadow key register\tmodified\ttrue\t0x1.bp+7\ttrue";
    "(d) XOR-tree key reconstruction\tmodified\ttrue\t0x1.644p+11\ttrue";
    "(e) freeze FFs during unlock\tmodified\tfalse\t0x1p+2\tfalse";
  ]

let test_trojan_table_verdicts () =
  let fx = E.Security.make_fixture ~num_gates:300 ~key_size:24 () in
  let rows = E.Trojan_table.run fx in
  check Alcotest.int "5 scenarios x 2 schemes" 10 (List.length rows);
  (* the paper's verdict: everything defeated except (e) on the basic scheme *)
  List.iter
    (fun r ->
      let defeated = Orap_core.Threat.defeated r.E.Trojan_table.outcome in
      match (r.E.Trojan_table.scenario, r.E.Trojan_table.scheme) with
      | Orap_core.Threat.Freeze_state_ffs, "basic" ->
        check Alcotest.bool "(e) wins vs basic" false defeated
      | _ -> check Alcotest.bool "defeated" true defeated)
    rows;
  check
    Alcotest.(list string)
    "trojan rows" golden_trojan_rows
    (List.map E.Trojan_table.row_codec.Runner.encode rows);
  (* scenario label, oracle obtained, payload *)
  check_codec E.Trojan_table.row_codec golden_trojan_rows
    ~bad:[ (0, "(f) no such scenario"); (2, "x"); (3, "x") ]

let test_report_rendering () =
  let t =
    E.Report.create ~title:"t" ~header:[ "a"; "bb" ] ~aligns:[ E.Report.L; E.Report.R ]
  in
  E.Report.add_row t [ "xxx"; "1" ];
  let s = E.Report.render t in
  check Alcotest.bool "contains title" true
    (String.length s > 0 && String.sub s 0 4 = "== t");
  Alcotest.check_raises "row width mismatch" (Invalid_argument "Report.add_row")
    (fun () -> E.Report.add_row t [ "only-one" ])

let suite =
  ( "experiments",
    [
      tc "table1 shape" `Slow test_table1_shape;
      tc "table1 golden rows" `Quick test_table1_golden;
      tc "table2 shape" `Slow test_table2_shape;
      tc "table2 golden rows" `Quick test_table2_golden;
      tc "security figures" `Quick test_security_figs;
      tc "attack matrix golden rows" `Quick test_attack_matrix_golden;
      tc "robustness golden rows" `Quick test_robustness_golden;
      tc "robustness cell ids" `Quick test_cell_id_golden;
      tc "trojan verdict table" `Quick test_trojan_table_verdicts;
      tc "report rendering" `Quick test_report_rendering;
    ] )
