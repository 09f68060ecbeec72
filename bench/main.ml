(** Benchmark harness.

    Two layers:
    1. {b Experiment regeneration} — every table and figure of the paper is
       recomputed and printed (Table I, Table II, the Figs. 1–3 behaviour
       checks, the Section II-A attack matrix and the Section III Trojan
       table).  Scale is controlled by the [ORAP_SCALE] environment
       variable: profile sizes are divided by it (default 8; set
       [ORAP_SCALE=1] for paper-scale circuits — several minutes).
    2. {b Bechamel micro-benchmarks} — one [Test.make] per experiment,
       timing the computational kernel each table/figure rests on.

    Set [ORAP_SKIP_TABLES=1], [ORAP_SKIP_RUNNER=1], [ORAP_SKIP_TELEMETRY=1]
    or [ORAP_SKIP_MICRO=1] to skip layers.  [ORAP_TRACE=FILE] /
    [ORAP_METRICS=FILE] mirror the CLI's [--trace] / [--metrics]. *)

open Bechamel
open Toolkit
module E = Orap_experiments
module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Lfsr = Orap_lfsr.Lfsr
module Symbolic = Orap_lfsr.Symbolic
module Runner = Orap_runner.Runner
module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

let env_flag name = Sys.getenv_opt name = Some "1"

let scale = env_int "ORAP_SCALE" 8

let section title = Printf.printf "\n###### %s ######\n%!" title

let time_it name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "(%s: %.1fs)\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ---------- layer 1: regenerate every table and figure ---------- *)

let run_tables () =
  section (Printf.sprintf "Experiment regeneration (ORAP_SCALE=%d)" scale);

  section "Table I — HD, area and delay overhead";
  let params =
    { E.Table1.default_params with E.Table1.scale; hd_words = max 16 (320 / scale) }
  in
  let rows = time_it "table1" (fun () -> E.Table1.run ~params ()) in
  E.Report.print (E.Table1.report rows);

  section "Table II — stuck-at fault coverage";
  let params2 =
    { E.Table2.default_params with E.Table2.scale = max scale 4 }
  in
  let rows2 = time_it "table2" (fun () -> E.Table2.run ~params:params2 ()) in
  E.Report.print (E.Table2.report rows2);

  section "Figs. 1-3 — OraP behaviour";
  let fx = E.Security.make_fixture () in
  let f1 = E.Security.fig1 fx in
  Printf.printf
    "Fig.1  unlock places correct key: %b | scan_enable clears key: %b | scan responses locked: %b\n"
    f1.E.Security.unlock_key_correct f1.E.Security.key_cleared_on_scan
    f1.E.Security.scan_responses_locked;
  let f2 = E.Security.fig2 () in
  Printf.printf
    "Fig.2  pulse on rising edge: %b | silent on hold: %b | silent on falling edge: %b\n"
    f2.E.Security.fires_on_rising_edge f2.E.Security.silent_on_level_hold
    f2.E.Security.silent_on_falling_edge;
  let f3 = E.Security.fig3 fx in
  Printf.printf
    "Fig.3  honest closed-loop unlock: %b | frozen FFs corrupt key: %b | basic scheme freeze-immune: %b\n"
    f3.E.Security.honest_unlock_correct f3.E.Security.frozen_ffs_break_unlock
    f3.E.Security.responses_differ_from_basic;

  section "Section II-A — oracle-based attacks vs OraP";
  let rows3 = time_it "attack matrix" (fun () -> E.Security.attack_matrix fx) in
  E.Report.print (E.Security.attack_report rows3);
  Printf.printf "S3 hill-climb on locked test responses: %s\n"
    (Orap_attacks.Evaluate.to_string (E.Security.hill_climb_on_test_responses fx));

  section "Section III — Trojan scenarios";
  E.Report.print (E.Trojan_table.report (E.Trojan_table.run fx));

  section "Robustness — attacks vs noisy / rate-limited oracles";
  let rparams =
    {
      E.Robustness.default_params with
      E.Robustness.num_gates = max 60 (300 / scale);
      key_size = max 8 (16 / max 1 (scale / 4));
      trials = (if scale >= 8 then 2 else 3);
      max_iterations = 64;
      wall_clock_s = 5.0;
    }
  in
  let rrows =
    time_it "robustness" (fun () -> E.Robustness.run ~params:rparams ())
  in
  E.Report.print (E.Robustness.report rrows);

  section "Manufacturing-test flow through the protected chip (Table II, end to end)";
  let sf = time_it "scan flow" (fun () -> E.Scan_flow.run fx.E.Security.basic) in
  Printf.printf
    "patterns applied via scan: %d | responses match locked prediction: %b |\n\
     key register never held the secret: %b | ATPG coverage: %.2f%%\n"
    sf.E.Scan_flow.patterns_applied sf.E.Scan_flow.responses_match_prediction
    sf.E.Scan_flow.key_register_never_secret sf.E.Scan_flow.atpg_coverage_pct;

  section "Ablations (design choices)";
  E.Report.print (E.Ablation.a1_report (E.Ablation.site_selection ()));
  E.Report.print (E.Ablation.a3_report (E.Ablation.key_register_structure ()));
  E.Report.print (E.Ablation.a4_report (E.Ablation.scheme_comparison fx))

(* ---------- runner: serial vs parallel wall-clock ---------- *)

(* a scaled-down Table I grid: the embarrassingly parallel shape every
   paper table shares.  Results are bit-identical at any [jobs] (per-cell
   derived seeds), so only the wall-clock changes. *)
let run_runner_bench () =
  section "Runner: serial vs 2- and 4-domain wall-clock (Table I grid)";
  let params =
    { E.Table1.default_params with E.Table1.scale = max scale 16;
      hd_words = 48; hd_keys = 2 }
  in
  let time jobs =
    let options = { Runner.default_options with Runner.jobs } in
    let t0 = Unix.gettimeofday () in
    let rows = E.Table1.run ~params ~options () in
    let dt = Unix.gettimeofday () -. t0 in
    (List.length rows, dt)
  in
  ignore (time 1) (* warm the minor heap and code paths *);
  let cells, serial_s = time 1 in
  let _, jobs2_s = time 2 in
  let _, jobs4_s = time 4 in
  let speedup d = serial_s /. d in
  Printf.printf
    "cells=%d  serial %.2fs | 2 domains %.2fs (%.2fx) | 4 domains %.2fs (%.2fx)  [%d core(s)]\n%!"
    cells serial_s jobs2_s (speedup jobs2_s) jobs4_s (speedup jobs4_s)
    (Domain.recommended_domain_count ());
  let out =
    match Sys.getenv_opt "ORAP_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_runner.json"
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"runner/table1-grid\",\n\
    \  \"cells\": %d,\n\
    \  \"scale\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"serial_s\": %.3f,\n\
    \  \"jobs2_s\": %.3f,\n\
    \  \"jobs4_s\": %.3f,\n\
    \  \"speedup_2\": %.3f,\n\
    \  \"speedup_4\": %.3f,\n\
    \  \"metrics\": %s\n\
     }\n"
    cells params.E.Table1.scale
    (Domain.recommended_domain_count ())
    serial_s jobs2_s jobs4_s (speedup jobs2_s) (speedup jobs4_s)
    (Metrics.snapshot_json ());
  close_out oc;
  Printf.printf "(wrote %s)\n%!" out

(* ---------- telemetry: disabled-path overhead ---------- *)

(* Permanent instrumentation is only acceptable if its disabled path is
   free.  Time an instrumented hot path (a full SAT attack: solver spans,
   oracle spans, metrics) with no sink installed and with the counting
   no-op sink, and require the delta to stay under 2%. *)
let run_telemetry_overhead () =
  section "Telemetry: overhead of the disabled path vs a no-op sink";
  let small =
    Benchgen.generate
      { Benchgen.seed = 5; num_inputs = 32; num_outputs = 24; num_gates = 400 }
  in
  let locked = Orap_locking.Random_ll.lock small ~key_size:16 in
  let workload () =
    ignore (Orap_attacks.Sat_attack.run locked (Oracle.functional locked))
  in
  let rounds = max 3 (24 / scale) in
  let time_rounds () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      workload ()
    done;
    Unix.gettimeofday () -. t0
  in
  workload () (* warm-up *);
  (* alternate measurements so drift hits both sides equally; keep minima *)
  let disabled_s = ref infinity and nullsink_s = ref infinity in
  for _ = 1 to 3 do
    disabled_s := Float.min !disabled_s (time_rounds ());
    Telemetry.install (Telemetry.null ());
    nullsink_s := Float.min !nullsink_s (time_rounds ());
    Telemetry.shutdown ()
  done;
  let overhead_pct = 100.0 *. ((!nullsink_s /. !disabled_s) -. 1.0) in
  Printf.printf
    "sat attack x%d: disabled %.3fs | null sink %.3fs | overhead %+.2f%% — %s\n%!"
    rounds !disabled_s !nullsink_s overhead_pct
    (if overhead_pct < 2.0 then "OK (<2%)" else "EXCEEDS 2% TARGET")

(* ---------- layer 2: bechamel micro-benchmarks ---------- *)

(* shared fixtures, built once *)
let bench_nl =
  lazy
    (Benchgen.generate
       { Benchgen.seed = 77; num_inputs = 96; num_outputs = 64; num_gates = 2000 })

let bench_locked = lazy (Weighted.lock (Lazy.force bench_nl) ~key_size:48 ~ctrl_inputs:3)

let bench_design =
  lazy
    (Orap.protect
       ~config:(Orap.default_config ~kind:Orap.Modified ~num_ffs:32 ())
       (Lazy.force bench_locked))

let tests () =
  let nl = Lazy.force bench_nl in
  let locked = Lazy.force bench_locked in
  let design = Lazy.force bench_design in
  let rng = Orap_sim.Prng.create 3 in
  let words = Array.init (N.num_inputs nl) (fun _ -> Orap_sim.Prng.next64 rng) in
  let store = Orap_sim.Sim.store nl in
  (* Table I kernels *)
  let t_sim =
    Test.make ~name:"table1/bit-parallel sim (64 patterns, 2k gates)"
      (Staged.stage (fun () ->
           Orap_sim.Sim.eval nl store words))
  in
  let wrong_key = Array.make 48 true in
  let t_hd =
    Test.make ~name:"table1/HD estimate (8 words)"
      (Staged.stage (fun () ->
           ignore (Locked.hamming_vs_original ~words:8 locked wrong_key)))
  in
  let t_lock =
    Test.make ~name:"table1/weighted locking (2k gates, 48-bit key)"
      (Staged.stage (fun () ->
           ignore (Weighted.lock nl ~key_size:48 ~ctrl_inputs:3)))
  in
  let small =
    Benchgen.generate
      { Benchgen.seed = 5; num_inputs = 32; num_outputs = 24; num_gates = 400 }
  in
  let t_synth =
    Test.make ~name:"table1/abc resynthesis (400 gates)"
      (Staged.stage (fun () -> ignore (Orap_synth.Abc_script.evaluate small)))
  in
  (* Table II kernels *)
  let faults = Orap_faultsim.Fault.collapsed_list small in
  let t_fsim =
    Test.make ~name:"table2/fault sim word (400 gates, all faults)"
      (Staged.stage (fun () ->
           let remaining = Array.make (Array.length faults) true in
           ignore
             (Orap_faultsim.Fsim.random_simulate ~words:1 small faults remaining)))
  in
  let t_atpg =
    Test.make ~name:"table2/full ATPG (400 gates)"
      (Staged.stage (fun () -> ignore (Orap_atpg.Atpg.run ~random_words:4 small)))
  in
  (* Figs. 1-3 kernels *)
  let t_unlock =
    Test.make ~name:"fig1-3/chip unlock (modified scheme)"
      (Staged.stage (fun () ->
           let chip = Chip.create design in
           Chip.unlock chip))
  in
  let chip = Chip.create design in
  Chip.unlock chip;
  let oracle_input =
    Array.init (Orap.num_ext_inputs design + Orap.num_ffs design) (fun i ->
        i land 1 = 0)
  in
  let t_scan =
    Test.make ~name:"fig1/scan oracle query"
      (Staged.stage (fun () ->
           let o = Oracle.scan_chip chip in
           ignore (Oracle.query o oracle_input)))
  in
  (* S1 kernel: one full SAT attack on a small fixture *)
  let small_locked = Orap_locking.Random_ll.lock small ~key_size:16 in
  let t_sat =
    Test.make ~name:"s1/SAT attack (400 gates, 16-bit key)"
      (Staged.stage (fun () ->
           ignore
             (Orap_attacks.Sat_attack.run small_locked
                (Oracle.functional small_locked))))
  in
  (* robustness kernel: one query through the full fault stack *)
  let faulty_input =
    Array.init small_locked.Locked.num_regular_inputs (fun i -> i land 1 = 1)
  in
  let faulty_stack =
    let o = Oracle.functional small_locked in
    let o = Orap_core.Faulty_oracle.bit_flip ~seed:9 ~p:0.05 o in
    Orap_core.Faulty_oracle.retry ~votes:3 o
  in
  let t_faulty =
    Test.make ~name:"robustness/faulty oracle query (bit-flip, 3 votes)"
      (Staged.stage (fun () -> ignore (Oracle.query faulty_stack faulty_input)))
  in
  (* S2 kernel: symbolic LFSR schedule *)
  let lfsr = Lfsr.create ~size:128 () in
  let t_sym =
    Test.make ~name:"s2/symbolic LFSR (128 cells, 8 seeds)"
      (Staged.stage (fun () ->
           ignore
             (Symbolic.of_schedule lfsr ~num_seeds:8
                ~free_runs:[ 3; 3; 3; 3; 3; 3; 3; 3 ])))
  in
  [ t_sim; t_hd; t_lock; t_synth; t_fsim; t_atpg; t_unlock; t_scan; t_sat;
    t_faulty; t_sym ]

let run_micro () =
  section "Bechamel micro-benchmarks (one kernel per table/figure)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.8) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] ->
            Printf.printf "%-55s %12.1f ns/run\n%!" name t
          | Some _ | None -> Printf.printf "%-55s (no estimate)\n%!" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (tests ()))

let () =
  (* ORAP_TRACE=FILE mirrors the CLI's --trace (chrome array for .json,
     JSONL otherwise); ORAP_METRICS=FILE snapshots the registry on exit *)
  (match Sys.getenv_opt "ORAP_TRACE" with
  | None -> ()
  | Some path ->
    Telemetry.install
      (if Filename.check_suffix path ".json" then Telemetry.chrome path
       else Telemetry.jsonl path));
  Fun.protect
    ~finally:(fun () ->
      Telemetry.shutdown ();
      match Sys.getenv_opt "ORAP_METRICS" with
      | None -> ()
      | Some path -> Metrics.write_json path)
    (fun () ->
      if not (env_flag "ORAP_SKIP_TABLES") then run_tables ();
      if not (env_flag "ORAP_SKIP_RUNNER") then run_runner_bench ();
      if not (env_flag "ORAP_SKIP_TELEMETRY") then run_telemetry_overhead ();
      if not (env_flag "ORAP_SKIP_MICRO") then run_micro ());
  print_newline ()
