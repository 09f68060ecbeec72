(** orap — command-line front end.

    Subcommands: generate, lock, atpg, attack, table1, table2, security,
    trojans.  Run [orap <cmd> --help] for per-command options. *)

open Cmdliner
module N = Orap_netlist.Netlist
module Bench_format = Orap_netlist.Bench_format
module Benchgen = Orap_benchgen.Benchgen
module Locked = Orap_locking.Locked
module E = Orap_experiments
module Runner = Orap_runner.Runner
module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics
module Trace = Orap_telemetry.Trace

(* --- shared observability option group --- *)

let obs_opts : (string option * string option) Term.t =
  let docs = "OBSERVABILITY" in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docs ~docv:"FILE"
          ~doc:
            "Write a span/event trace to $(docv): Chrome trace_event JSON \
             array when $(docv) ends in .json (loadable directly in \
             about://tracing or Perfetto), JSONL event stream otherwise \
             (validate with $(b,orap tracecheck)).")
  in
  let metrics =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docs ~docv:"FILE"
          ~doc:
            "Write a JSON snapshot of all counters, gauges and latency \
             histograms to $(docv) on exit.")
  in
  Term.(const (fun t m -> (t, m)) $ trace $ metrics)

(* run [f] under the requested trace sink / metrics snapshot *)
let with_obs (trace, metrics) f =
  (match trace with
  | None -> ()
  | Some path ->
    Telemetry.install
      (if Filename.check_suffix path ".json" then Telemetry.chrome path
       else Telemetry.jsonl path));
  Fun.protect
    ~finally:(fun () ->
      Telemetry.shutdown ();
      match metrics with None -> () | Some path -> Metrics.write_json path)
    f

(* --- shared runner option group (grid subcommands) --- *)

let runner_opts : Runner.options Term.t =
  let docs = "PARALLEL EXECUTION" in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docs
          ~doc:"Worker domains for the experiment grid (0 = all cores).")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docs ~docv:"FILE"
          ~doc:
            "Append completed grid cells to $(docv) (JSONL) so an \
             interrupted run can be resumed.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ] ~docs
          ~doc:
            "Skip cells already recorded in $(b,--journal) (corrupt or \
             half-written lines are recomputed).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ] ~docs
          ~doc:"Periodic done/total, cells/sec and ETA lines on stderr.")
  in
  let mk jobs journal resume progress =
    { Runner.default_options with Runner.jobs; journal; resume; progress }
  in
  Term.(const mk $ jobs $ journal $ resume $ progress)

(* an int option below [lo] is a usage error, not a failure deep inside *)
let int_at_least lo =
  let parse v =
    match int_of_string_opt v with
    | Some n when n >= lo -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" v))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

(* fixture sizes the locking and generation steps accept *)
let fixture_gates default =
  Arg.(value & opt (int_at_least 1) default & info [ "gates" ] ~doc:"fixture gate count")

let fixture_key_size default =
  Arg.(value & opt (int_at_least 2) default & info [ "key-size" ] ~doc:"key bits")

(* a .bench file argument, read and parsed while the command line is: a
   missing, unreadable or malformed file is a usage error *)
let netlist_file =
  let parse path =
    match Bench_format.parse_file path with
    | src -> Ok src.Bench_format.netlist
    | exception Sys_error msg -> Error (`Msg msg)
    | exception Bench_format.Parse_error (0, msg) | exception N.Invalid msg ->
      Error (`Msg (Printf.sprintf "%s: %s" path msg))
    | exception Bench_format.Parse_error (line, msg) ->
      Error (`Msg (Printf.sprintf "%s: line %d: %s" path line msg))
  in
  Arg.conv ~docv:"BENCH" (parse, fun ppf _ -> Format.pp_print_string ppf "<netlist>")

let bench_arg = Arg.(required & pos 0 (some netlist_file) None & info [] ~docv:"BENCH")

(* --- generate --- *)

let generate_cmd =
  let run seed inputs outputs gates out =
    let nl =
      Benchgen.generate
        { Benchgen.seed; num_inputs = inputs; num_outputs = outputs; num_gates = gates }
    in
    Bench_format.print_to_file out nl;
    Printf.printf "wrote %s: %d gates, %d inputs, %d outputs, depth %d\n" out
      (N.gate_count nl) (N.num_inputs nl) (N.num_outputs nl) (N.depth nl)
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed") in
  let inputs =
    Arg.(value & opt (int_at_least 2) 64 & info [ "inputs" ] ~doc:"primary inputs")
  in
  let outputs =
    Arg.(value & opt (int_at_least 1) 32 & info [ "outputs" ] ~doc:"primary outputs")
  in
  let gates =
    Arg.(value & opt (int_at_least 1) 1000 & info [ "gates" ] ~doc:"target gate count")
  in
  let out = Arg.(value & opt string "out.bench" & info [ "o"; "output" ] ~doc:"output file") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic benchmark circuit (.bench)")
    Term.(const run $ seed $ inputs $ outputs $ gates $ out)

(* --- lock --- *)

let lock_cmd =
  let lock nl technique key_size ctrl =
    match technique with
    | `Weighted -> Orap_locking.Weighted.lock nl ~key_size ~ctrl_inputs:ctrl
    | `Random -> Orap_locking.Random_ll.lock nl ~key_size
    | `Sarlock -> Orap_locking.Sarlock.lock nl ~key_size
    | `Antisat -> Orap_locking.Antisat.lock nl ~key_size
  in
  let run nl technique key_size ctrl out =
    (* a key the circuit cannot hold ("circuit too small") is a usage error *)
    match lock nl technique key_size ctrl with
    | exception Invalid_argument msg -> `Error (true, msg)
    | locked ->
      Bench_format.print_to_file out locked.Locked.netlist;
      let key =
        String.concat ""
          (List.map (fun b -> if b then "1" else "0")
             (Array.to_list locked.Locked.correct_key))
      in
      Printf.printf "wrote %s (%s)\ncorrect key: %s\n" out
        locked.Locked.technique key;
      `Ok ()
  in
  let technique =
    Arg.(
      value
      & opt
          (enum
             [ ("weighted", `Weighted); ("random", `Random);
               ("sarlock", `Sarlock); ("antisat", `Antisat) ])
          `Weighted
      & info [ "technique" ] ~doc:"weighted|random|sarlock|antisat")
  in
  let key_size =
    Arg.(value & opt (int_at_least 1) 64 & info [ "key-size" ] ~doc:"key bits")
  in
  let ctrl =
    Arg.(value & opt (int_at_least 1) 3 & info [ "ctrl-inputs" ] ~doc:"control gate width")
  in
  let out = Arg.(value & opt string "locked.bench" & info [ "o"; "output" ] ~doc:"output file") in
  Cmd.v
    (Cmd.info "lock" ~doc:"Lock a circuit with a combinational locking technique")
    Term.(ret (const run $ bench_arg $ technique $ key_size $ ctrl $ out))

(* --- atpg --- *)

let atpg_cmd =
  let run nl words limit obs =
    with_obs obs @@ fun () ->
    let r = Orap_atpg.Atpg.run ~random_words:words ~backtrack_limit:limit nl in
    Printf.printf
      "faults: %d\ndetected: %d (%.2f%%)\nredundant: %d\naborted: %d\nrandom-phase detections: %d\ndeterministic patterns: %d\n"
      r.Orap_atpg.Atpg.total_faults r.Orap_atpg.Atpg.detected
      (Orap_atpg.Atpg.coverage r) r.Orap_atpg.Atpg.redundant
      r.Orap_atpg.Atpg.aborted r.Orap_atpg.Atpg.random_detected
      (List.length r.Orap_atpg.Atpg.patterns)
  in
  let words =
    Arg.(value & opt (int_at_least 0) 32 & info [ "random-words" ] ~doc:"64-pattern random words")
  in
  let limit =
    Arg.(value & opt (int_at_least 0) 64 & info [ "backtrack-limit" ] ~doc:"PODEM backtrack limit")
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Stuck-at ATPG (random phase + PODEM)")
    Term.(const run $ bench_arg $ words $ limit $ obs_opts)

(* --- attack --- *)

module Budget = Orap_attacks.Budget
module Evaluate = Orap_attacks.Evaluate
module Key_recovery = Orap_attacks.Key_recovery

let attack_cmd =
  let run attack oracle seed gates key_size noise qbudget votes wall_clock
      max_conflicts validate obs =
    with_obs obs @@ fun () ->
    let fx =
      E.Security.make_fixture ~seed ~num_gates:gates ~key_size ()
    in
    let budget =
      Budget.make
        ?wall_clock_s:(if wall_clock > 0.0 then Some wall_clock else None)
        ?max_conflicts:(if max_conflicts > 0 then Some max_conflicts else None)
        ()
    in
    let locked = fx.E.Security.locked in
    let r =
      (Key_recovery.of_slug attack).run ~budget ~validate locked
        (E.Robustness.oracle fx (E.Security.oracle_of_slug oracle) ~noise
           ~query_budget:qbudget ~votes ~seed)
    in
    let verdict = Evaluate.of_outcome locked r.outcome in
    let shown =
      match r.outcome with
      | Budget.Exact _ when not verdict.Evaluate.equivalent ->
        (* the miter proof is relative to the oracle's answers — a locked
           (OraP) oracle yields a proof of the wrong function *)
        "false proof (exact only vs. the oracle's answers)"
      | o -> Budget.outcome_to_string o
    in
    Printf.printf "%s vs %s oracle: %s — %s (iters=%d, queries=%d)\n" attack
      oracle shown
      (Evaluate.to_string verdict)
      r.iterations r.queries
  in
  let attack = Arg.(value & opt string "sat" & info [ "attack" ] ~doc:Key_recovery.slugs) in
  let oracle = Arg.(value & opt string "functional" & info [ "oracle" ] ~doc:"functional|orap") in
  let seed = Arg.(value & opt int 12 & info [ "seed" ] ~doc:"fixture seed") in
  let gates = fixture_gates 500 in
  let key_size = fixture_key_size 32 in
  let noise = Arg.(value & opt float 0.0 & info [ "noise" ] ~doc:"per-query bit-flip probability") in
  let qbudget = Arg.(value & opt int 0 & info [ "query-budget" ] ~doc:"oracle refuses after N queries (0 = unlimited)") in
  let votes = Arg.(value & opt int 1 & info [ "votes" ] ~doc:"majority-vote retries per query (odd; 1 = off)") in
  let wall_clock = Arg.(value & opt float 0.0 & info [ "wall-clock" ] ~doc:"attack deadline in seconds (0 = none)") in
  let max_conflicts = Arg.(value & opt int 0 & info [ "max-conflicts" ] ~doc:"cumulative solver-conflict budget (0 = none)") in
  let validate = Arg.(value & opt int 32 & info [ "validate" ] ~doc:"post-proof audit queries for SAT's exact claims (0 = trust the proof)") in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run an oracle-based attack on a locked fixture")
    Term.(const run $ attack $ oracle $ seed $ gates $ key_size $ noise
          $ qbudget $ votes $ wall_clock $ max_conflicts $ validate $ obs_opts)

(* --- robustness --- *)

let robustness_cmd =
  let parse_list ~what conv s =
    match
      List.map conv
        (List.filter (fun x -> x <> "") (String.split_on_char ',' s))
    with
    | [] -> failwith ("empty " ^ what ^ " list")
    | l -> l
    | exception _ -> failwith ("bad " ^ what ^ " list: " ^ s)
  in
  let run seed gates key_size oracle noise qbudgets trials attacks iters
      wall_clock max_conflicts votes options obs =
    with_obs obs @@ fun () ->
    let attacks =
      if attacks = "all" then Key_recovery.all
      else parse_list ~what:"attack" Key_recovery.of_slug attacks
    in
    let params =
      {
        E.Robustness.seed;
        num_gates = gates;
        key_size;
        oracle = E.Security.oracle_of_slug oracle;
        noise_levels = parse_list ~what:"noise" float_of_string noise;
        query_budgets = parse_list ~what:"query-budget" int_of_string qbudgets;
        trials;
        attacks;
        max_iterations = iters;
        wall_clock_s = wall_clock;
        max_conflicts = (if max_conflicts > 0 then Some max_conflicts else None);
        retry_votes = votes;
        validate_queries = E.Robustness.default_params.E.Robustness.validate_queries;
      }
    in
    E.Report.print (E.Robustness.report (E.Robustness.run ~params ~options ()))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"fixture seed") in
  let gates = fixture_gates 300 in
  let key_size = fixture_key_size 16 in
  let oracle = Arg.(value & opt string "functional" & info [ "oracle" ] ~doc:"base oracle: functional|orap") in
  let noise = Arg.(value & opt string "0.0,0.02,0.1" & info [ "noise" ] ~doc:"comma-separated bit-flip probabilities") in
  let qbudgets = Arg.(value & opt string "0,2000" & info [ "query-budget" ] ~doc:"comma-separated query budgets (0 = unlimited)") in
  let trials = Arg.(value & opt int 3 & info [ "trials" ] ~doc:"noise seeds per cell") in
  let attacks = Arg.(value & opt string "all" & info [ "attacks" ] ~doc:("all or comma-separated " ^ Key_recovery.slugs)) in
  let iters = Arg.(value & opt int 256 & info [ "max-iterations" ] ~doc:"DIP/loop iteration cap") in
  let wall_clock = Arg.(value & opt float 10.0 & info [ "wall-clock" ] ~doc:"per-attack deadline, seconds") in
  let max_conflicts = Arg.(value & opt int 0 & info [ "max-conflicts" ] ~doc:"cumulative solver-conflict budget (0 = none)") in
  let votes = Arg.(value & opt int 1 & info [ "votes" ] ~doc:"majority-vote retries per query (odd; 1 = off)") in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Sweep noise level x query budget x attack against an imperfect oracle")
    Term.(const run $ seed $ gates $ key_size $ oracle $ noise $ qbudgets
          $ trials $ attacks $ iters $ wall_clock $ max_conflicts $ votes
          $ runner_opts $ obs_opts)

(* --- experiment tables --- *)

let scale_arg =
  Arg.(value & opt int 0 & info [ "scale" ]
         ~doc:"profile scale divisor; 0 = experiment default, 1 = paper scale")

let table1_cmd =
  let run scale options obs =
    with_obs obs @@ fun () ->
    let params =
      if scale = 0 then E.Table1.quick_params
      else { E.Table1.default_params with E.Table1.scale }
    in
    E.Report.print (E.Table1.report (E.Table1.run ~params ~options ()))
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table I (HD, area, delay overhead)")
    Term.(const run $ scale_arg $ runner_opts $ obs_opts)

let table2_cmd =
  let run scale options obs =
    with_obs obs @@ fun () ->
    let params =
      if scale = 0 then E.Table2.quick_params
      else { E.Table2.default_params with E.Table2.scale }
    in
    E.Report.print (E.Table2.report (E.Table2.run ~params ~options ()))
  in
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table II (fault coverage)")
    Term.(const run $ scale_arg $ runner_opts $ obs_opts)

let security_cmd =
  let run obs =
    with_obs obs @@ fun () ->
    let fx = E.Security.make_fixture () in
    let f1 = E.Security.fig1 fx in
    Printf.printf
      "F1 (Fig.1): unlock correct=%b, cleared on scan=%b, scan locked=%b\n"
      f1.E.Security.unlock_key_correct f1.E.Security.key_cleared_on_scan
      f1.E.Security.scan_responses_locked;
    let f2 = E.Security.fig2 () in
    Printf.printf "F2 (Fig.2): rising=%b, hold silent=%b, falling silent=%b\n"
      f2.E.Security.fires_on_rising_edge f2.E.Security.silent_on_level_hold
      f2.E.Security.silent_on_falling_edge;
    let f3 = E.Security.fig3 fx in
    Printf.printf
      "F3 (Fig.3): honest unlock=%b, frozen FFs break key=%b, basic immune to freeze=%b\n"
      f3.E.Security.honest_unlock_correct f3.E.Security.frozen_ffs_break_unlock
      f3.E.Security.responses_differ_from_basic;
    E.Report.print (E.Security.attack_report (E.Security.attack_matrix fx));
    Printf.printf "S3 hill-climb on locked test responses: %s\n"
      (Orap_attacks.Evaluate.to_string (E.Security.hill_climb_on_test_responses fx))
  in
  Cmd.v (Cmd.info "security" ~doc:"Figs. 1-3 behaviour and the attack matrix")
    Term.(const run $ obs_opts)

let trojans_cmd =
  let run options obs =
    with_obs obs @@ fun () ->
    let fx = E.Security.make_fixture () in
    E.Report.print (E.Trojan_table.report (E.Trojan_table.run ~options fx))
  in
  Cmd.v (Cmd.info "trojans" ~doc:"Section III Trojan scenarios (payload/outcome)")
    Term.(const run $ runner_opts $ obs_opts)

let ablation_cmd =
  let run obs =
    with_obs obs @@ fun () ->
    let fx = E.Security.make_fixture () in
    E.Report.print (E.Ablation.a1_report (E.Ablation.site_selection ()));
    E.Report.print (E.Ablation.a3_report (E.Ablation.key_register_structure ()));
    E.Report.print (E.Ablation.a4_report (E.Ablation.scheme_comparison fx))
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Design-choice ablation tables")
    Term.(const run $ obs_opts)

let scanflow_cmd =
  let run obs =
    with_obs obs @@ fun () ->
    let fx = E.Security.make_fixture () in
    let r = E.Scan_flow.run fx.E.Security.basic in
    Printf.printf
      "patterns applied via scan: %d\nresponses match locked prediction: %b\nkey register never held the secret: %b\nATPG coverage: %.2f%%\n"
      r.E.Scan_flow.patterns_applied r.E.Scan_flow.responses_match_prediction
      r.E.Scan_flow.key_register_never_secret r.E.Scan_flow.atpg_coverage_pct
  in
  Cmd.v
    (Cmd.info "scanflow"
       ~doc:"Apply ATPG patterns through the protected chip's scan chains")
    Term.(const run $ obs_opts)

let tracecheck_cmd =
  let run input to_chrome =
    let finish = function
      | Ok n ->
        Printf.printf "%s: %d events, all lines valid\n" input n;
        `Ok ()
      | Error e ->
        `Error (false, Format.asprintf "%s: %a" input Trace.pp_error e)
    in
    match to_chrome with
    | None -> finish (Trace.validate_file input)
    | Some dst ->
      let r = Trace.to_chrome ~src:input ~dst in
      (match r with
      | Ok n -> Printf.printf "wrote %s (%d events)\n" dst n
      | Error _ -> ());
      finish r
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let to_chrome =
    Arg.(
      value & opt (some string) None
      & info [ "to-chrome" ] ~docv:"OUT"
          ~doc:
            "Also convert the JSONL stream to a Chrome trace_event JSON \
             array at $(docv).")
  in
  Cmd.v
    (Cmd.info "tracecheck"
       ~doc:
         "Strictly validate a JSONL trace written by --trace (every line \
          must parse as an emitted trace event)")
    Term.(ret (const run $ input $ to_chrome))

let export_cmd =
  let run nl out =
    Orap_netlist.Verilog.print_to_file out nl;
    Printf.printf "wrote %s (structural Verilog, %d gates)\n" out
      (N.gate_count nl)
  in
  let out = Arg.(value & opt string "out.v" & info [ "o"; "output" ] ~doc:"output file") in
  Cmd.v (Cmd.info "export" ~doc:"Convert a .bench netlist to structural Verilog")
    Term.(const run $ bench_arg $ out)

let main =
  Cmd.group
    (Cmd.info "orap" ~version:"1.0.0"
       ~doc:"OraP: oracle-protection logic locking (DATE 2020 reproduction)")
    [ generate_cmd; lock_cmd; atpg_cmd; attack_cmd; robustness_cmd; export_cmd;
      table1_cmd; table2_cmd; security_cmd; trojans_cmd; ablation_cmd;
      scanflow_cmd; tracecheck_cmd ]

let () = exit (Cmd.eval main)
