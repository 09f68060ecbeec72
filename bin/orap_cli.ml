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

(* an output file, opened for append while the command line is parsed: a
   path the CLI cannot write is a usage error naming the path and the
   system's reason, found before any work.  The check leaves an existing
   file as it was and removes a file it created, so a run that fails later
   leaves no empty output behind *)
let output_file =
  let parse path =
    let existed = Sys.file_exists path in
    match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
    | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Ok path
    | exception Sys_error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

(* the [-o] file of generate, lock and export; its default is checked too *)
let output_arg default =
  let check path =
    match Arg.conv_parser output_file path with
    | Ok path -> `Ok path
    | Error (`Msg msg) -> `Error (true, msg)
  in
  Term.(ret (const check $ Arg.(value & opt string default & info [ "o"; "output" ] ~doc:"output file")))

(* --- shared observability option group --- *)

let obs_opts : (string option * string option) Term.t =
  let docs = "OBSERVABILITY" in
  let trace =
    Arg.(
      value & opt (some output_file) None
      & info [ "trace" ] ~docs ~docv:"FILE"
          ~doc:
            "Write a span trace to $(docv): a JSONL event stream \
             (validate with $(b,orap tracecheck)), converted on exit to a \
             Chrome trace_event JSON array when $(docv) ends in .json \
             (loadable directly in about://tracing or Perfetto).")
  in
  let metrics =
    Arg.(
      value & opt (some output_file) None
      & info [ "metrics" ] ~docs ~docv:"FILE"
          ~doc:
            "Write a JSON snapshot of all counters and latency histograms \
             to $(docv) on exit.")
  in
  Term.(const (fun t m -> (t, m)) $ trace $ metrics)

(* run [f] under the requested trace sink / metrics snapshot; a .json
   trace is streamed to a temporary JSONL file beside it and wrapped into
   the Chrome array on exit (a killed run leaves that stream behind, for
   [tracecheck --to-chrome]) *)
let with_obs (trace, metrics) f =
  let chrome, stream =
    match trace with
    | Some dst when Filename.check_suffix dst ".json" ->
      let temp_dir = Filename.dirname dst and prefix = Filename.basename dst in
      (Some dst, Some (Filename.temp_file ~temp_dir prefix ".jsonl"))
    | _ -> (None, trace)
  in
  Option.iter (fun path -> Telemetry.install (Telemetry.jsonl path)) stream;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.shutdown ();
      (match (chrome, stream) with
      | Some dst, Some src ->
        (match Trace.to_chrome ~src ~dst with
        | Ok _ -> ()
        | Error e -> Format.eprintf "orap: %s: %a@." dst Trace.pp_error e);
        Sys.remove src
      | _ -> ());
      Option.iter Metrics.write_json metrics)
    f

(* a subcommand run under [--trace]/[--metrics]; [term] yields the run as
   a thunk.  A fixture the library cannot lock is a usage error. *)
let traced name ~doc term =
  let run obs f =
    match with_obs obs f with
    | () -> `Ok ()
    | exception E.Security.Cannot_lock msg -> `Error (true, msg)
  in
  Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ obs_opts $ term))

(* the one number converter: a value [read] cannot parse, or one that
   fails [ok], is a usage error ("V is [what]"), not a failure deep inside *)
let bounded read ~expected pp ~what ok =
  let parse v =
    match read v with
    | Some x when ok x -> Ok x
    | Some _ -> Error (`Msg (Printf.sprintf "%s is %s" v what))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" v expected))
  in
  Arg.conv (parse, pp)

let bounded_int = bounded int_of_string_opt ~expected:"an integer" Format.pp_print_int
let bounded_float = bounded float_of_string_opt ~expected:"a number" (fun ppf -> Format.fprintf ppf "%g")

let int_at_least lo =
  bounded_int ~what:(Printf.sprintf "below the minimum %d" lo) (fun n -> n >= lo)

let probability = bounded_float ~what:"not a probability in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)
let seconds = bounded_float ~what:"not a non-negative number of seconds" (fun t -> t >= 0.0)

(* --- shared runner option group (grid subcommands) --- *)

let runner_opts : Runner.options Term.t =
  let docs = "PARALLEL EXECUTION" in
  let jobs =
    Arg.(
      value & opt (int_at_least 0) 0
      & info [ "j"; "jobs" ] ~docs
          ~doc:"Worker domains for the experiment grid (0 = all cores).")
  in
  let journal =
    Arg.(
      value & opt (some output_file) None
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
    let cores = Domain.recommended_domain_count () in
    if jobs > cores then
      Printf.eprintf
        "orap: warning: --jobs %d exceeds the %d cores available; the extra \
         worker domains only share them\n%!"
        jobs cores;
    if resume && journal = None then `Error (true, "--resume needs --journal")
    else `Ok { Runner.default_options with Runner.jobs; journal; resume; progress }
  in
  Term.(ret (const mk $ jobs $ journal $ resume $ progress))

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
    Arg.(
      value & opt (int_at_least 1) 1000
      & info [ "gates" ]
          ~doc:
            "Target gate count, met to within a gate or two.  The XOR gates \
             that fold unread inputs down to one sink per output come on \
             top, so at least $(b,--inputs) minus $(b,--outputs) gates are \
             written: $(b,--gates) 1 writes 32 with the defaults.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic benchmark circuit (.bench)")
    Term.(const run $ seed $ inputs $ outputs $ gates $ output_arg "out.bench")

(* --- lock --- *)

let lock_cmd =
  let lock nl technique key_size ctrl =
    match technique with
    | `Weighted -> Orap_locking.Weighted.lock nl ~key_size ~ctrl_inputs:ctrl
    | `Random -> Orap_locking.Random_ll.lock nl ~key_size
    | `Sarlock -> Orap_locking.Sarlock.lock nl ~key_size
    | `Antisat -> Orap_locking.Antisat.lock nl ~key_size
  in
  (* without --key-size: 64 bits, halved until the circuit holds the key *)
  let rec lock_default nl technique key_size ctrl =
    match lock nl technique key_size ctrl with
    | exception Invalid_argument _ when key_size > 1 ->
      lock_default nl technique (key_size / 2) ctrl
    | locked -> locked
  in
  let run nl technique key_size ctrl out =
    let lock () =
      match key_size with
      | Some k ->
        let locked = lock nl technique k ctrl in
        (* SARLock and Anti-SAT clamp a size they cannot build *)
        if Locked.key_size locked <> k then
          invalid_arg
            (Printf.sprintf "%s builds a %d-bit key on this circuit, not %d"
               locked.Locked.technique (Locked.key_size locked) k);
        locked
      | None -> lock_default nl technique 64 ctrl
    in
    (* a key the circuit cannot hold ("circuit too small") or the technique
       cannot build is a usage error *)
    match lock () with
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
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "key-size" ]
          ~doc:
            "key bits; a size the technique cannot build on the circuit is an error \
             (SARLock takes at most one bit per input, Anti-SAT an even count of at most \
             two per input).  Default: 64, halved until random or weighted locking fits; \
             SARLock and Anti-SAT take their largest key up to 64 bits")
  in
  let ctrl =
    Arg.(value & opt (int_at_least 1) 3 & info [ "ctrl-inputs" ] ~doc:"control gate width")
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Lock a circuit with a combinational locking technique")
    Term.(ret (const run $ bench_arg $ technique $ key_size $ ctrl $ output_arg "locked.bench"))

(* --- atpg --- *)

let atpg_cmd =
  let run nl words limit () =
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
  traced "atpg" ~doc:"Stuck-at ATPG (random phase + PODEM)"
    Term.(const run $ bench_arg $ words $ limit)

(* --- attack --- *)

module Budget = Orap_attacks.Budget
module Evaluate = Orap_attacks.Evaluate
module Key_recovery = Orap_attacks.Key_recovery

(* an attack named by its slug; [Arg.enum]'s own printer would compare the
   attack records, closures included *)
let attack_conv =
  let by_slug = Arg.enum (List.map (fun a -> (a.Key_recovery.slug, a)) Key_recovery.all) in
  Arg.conv ~docv:"ATTACK"
    (Arg.conv_parser by_slug, fun ppf a -> Format.pp_print_string ppf a.Key_recovery.slug)

let oracle_arg ~doc =
  let kinds = E.Security.[ Functional; Orap_scan ] in
  Arg.(
    value
    & opt (enum (List.map (fun k -> (E.Security.oracle_slug k, k)) kinds)) E.Security.Functional
    & info [ "oracle" ] ~doc)

let max_conflicts_arg =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "max-conflicts" ] ~doc:"cumulative solver-conflict budget (0 = none)")

let votes_arg =
  Arg.(
    value
    & opt (bounded_int ~what:"not an odd count of at least 1" (fun n -> n >= 1 && n land 1 = 1)) 1
    & info [ "votes" ] ~doc:"majority-vote retries per query (odd; 1 = off)")

let attack_cmd =
  let run (attack : Key_recovery.t) oracle seed gates key_size noise qbudget
      votes wall_clock max_conflicts validate () =
    let fx = E.Security.make_fixture ~seed ~num_gates:gates ~key_size () in
    let budget =
      Budget.make
        ?wall_clock_s:(if wall_clock > 0.0 then Some wall_clock else None)
        ?max_conflicts:(if max_conflicts > 0 then Some max_conflicts else None)
        ()
    in
    let locked = fx.E.Security.locked in
    let r =
      attack.run ~budget ~validate locked
        (E.Robustness.oracle fx oracle ~noise ~query_budget:qbudget ~votes ~seed)
    in
    let verdict = Evaluate.of_outcome locked r.outcome in
    let shown =
      if Evaluate.false_proof r.outcome verdict then
        "false proof (exact only vs. the oracle's answers)"
      else Budget.outcome_to_string r.outcome
    in
    Printf.printf "%s vs %s oracle: %s — %s (iters=%d, queries=%d)\n"
      attack.slug (E.Security.oracle_slug oracle) shown
      (Evaluate.to_string verdict)
      r.iterations r.queries
  in
  let attack =
    Arg.(value & opt attack_conv (List.hd Key_recovery.all) & info [ "attack" ] ~doc:Key_recovery.slugs)
  in
  let oracle = oracle_arg ~doc:"functional|orap" in
  let seed = Arg.(value & opt int 12 & info [ "seed" ] ~doc:"fixture seed") in
  let gates = fixture_gates 500 in
  let key_size = fixture_key_size 32 in
  let noise = Arg.(value & opt probability 0.0 & info [ "noise" ] ~doc:"per-query bit-flip probability") in
  let qbudget = Arg.(value & opt (int_at_least 0) 0 & info [ "query-budget" ] ~doc:"oracle refuses after N queries (0 = unlimited)") in
  let wall_clock = Arg.(value & opt seconds 0.0 & info [ "wall-clock" ] ~doc:"attack deadline in seconds (0 = none)") in
  let validate = Arg.(value & opt (int_at_least 0) 32 & info [ "validate" ] ~doc:"post-proof audit queries for SAT's exact claims (0 = trust the proof)") in
  traced "attack" ~doc:"Run an oracle-based attack on a locked fixture"
    Term.(const run $ attack $ oracle $ seed $ gates $ key_size $ noise
          $ qbudget $ votes_arg $ wall_clock $ max_conflicts_arg $ validate)

(* --- robustness --- *)

let robustness_cmd =
  let run seed gates key_size oracle noise_levels query_budgets trials attacks
      iters wall_clock max_conflicts votes options () =
    let params =
      {
        E.Robustness.seed;
        num_gates = gates;
        key_size;
        oracle;
        noise_levels;
        query_budgets;
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
  (* a comma-separated list of [conv] values; an empty one is a usage error *)
  let nonempty_list conv =
    let list = Arg.list conv in
    let parse v =
      match Arg.conv_parser list v with
      | Ok [] -> Error (`Msg "expected a non-empty comma-separated list")
      | r -> r
    in
    Arg.conv (parse, Arg.conv_printer list)
  in
  (* "all", or a list of attack slugs *)
  let attacks_conv =
    let list = nonempty_list attack_conv in
    let parse = function "all" -> Ok Key_recovery.all | v -> Arg.conv_parser list v in
    let print ppf l =
      if l == Key_recovery.all then Format.pp_print_string ppf "all"
      else Arg.conv_printer list ppf l
    in
    Arg.conv (parse, print)
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"fixture seed") in
  let gates = fixture_gates 300 in
  let key_size = fixture_key_size 16 in
  let oracle = oracle_arg ~doc:"base oracle: functional|orap" in
  let noise = Arg.(value & opt (nonempty_list probability) [ 0.0; 0.02; 0.1 ] & info [ "noise" ] ~doc:"comma-separated bit-flip probabilities") in
  let qbudgets = Arg.(value & opt (nonempty_list (int_at_least 0)) [ 0; 2000 ] & info [ "query-budget" ] ~doc:"comma-separated query budgets (0 = unlimited)") in
  let trials = Arg.(value & opt (int_at_least 1) 3 & info [ "trials" ] ~doc:"noise seeds per cell") in
  let attacks = Arg.(value & opt attacks_conv Key_recovery.all & info [ "attacks" ] ~doc:("all or comma-separated " ^ Key_recovery.slugs)) in
  let iters = Arg.(value & opt (int_at_least 0) 256 & info [ "max-iterations" ] ~doc:"DIP/loop iteration cap") in
  let wall_clock = Arg.(value & opt seconds 10.0 & info [ "wall-clock" ] ~doc:"per-attack deadline, seconds") in
  traced "robustness"
    ~doc:"Sweep noise level x query budget x attack against an imperfect oracle"
    Term.(const run $ seed $ gates $ key_size $ oracle $ noise $ qbudgets
          $ trials $ attacks $ iters $ wall_clock $ max_conflicts_arg $ votes_arg
          $ runner_opts)

(* --- experiment tables --- *)

(* Table I or II: [table scale options] runs the grid at [--scale] and
   returns its report *)
let table_cmd name ~doc table =
  let scale =
    Arg.(value & opt (int_at_least 0) 0 & info [ "scale" ]
           ~doc:"profile scale divisor; 0 = experiment default, 1 = paper scale")
  in
  let run scale options () = E.Report.print (table scale options) in
  traced name ~doc Term.(const run $ scale $ runner_opts)

let table1_cmd =
  table_cmd "table1" ~doc:"Reproduce Table I (HD, area, delay overhead)" (fun scale options ->
      let params =
        if scale = 0 then E.Table1.quick_params else { E.Table1.default_params with scale }
      in
      E.Table1.report (E.Table1.run ~params ~options ()))

let table2_cmd =
  table_cmd "table2" ~doc:"Reproduce Table II (fault coverage)" (fun scale options ->
      let params =
        if scale = 0 then E.Table2.quick_params else { E.Table2.default_params with scale }
      in
      E.Table2.report (E.Table2.run ~params ~options ()))

let security_cmd =
  let run () =
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
  traced "security" ~doc:"Figs. 1-3 behaviour and the attack matrix" (Term.const run)

let trojans_cmd =
  let run options () =
    let fx = E.Security.make_fixture () in
    E.Report.print (E.Trojan_table.report (E.Trojan_table.run ~options fx))
  in
  traced "trojans" ~doc:"Section III Trojan scenarios (payload/outcome)"
    Term.(const run $ runner_opts)

let ablation_cmd =
  let run () =
    let fx = E.Security.make_fixture () in
    E.Report.print (E.Ablation.a1_report (E.Ablation.site_selection ()));
    E.Report.print (E.Ablation.a3_report (E.Ablation.key_register_structure ()));
    E.Report.print (E.Ablation.a4_report (E.Ablation.scheme_comparison fx))
  in
  traced "ablation" ~doc:"Design-choice ablation tables" (Term.const run)

let scanflow_cmd =
  let run () =
    let fx = E.Security.make_fixture () in
    let r = E.Scan_flow.run fx.E.Security.basic in
    Printf.printf
      "patterns applied via scan: %d\nresponses match locked prediction: %b\nkey register never held the secret: %b\nATPG coverage: %.2f%%\n"
      r.E.Scan_flow.patterns_applied r.E.Scan_flow.responses_match_prediction
      r.E.Scan_flow.key_register_never_secret r.E.Scan_flow.atpg_coverage_pct
  in
  traced "scanflow" ~doc:"Apply ATPG patterns through the protected chip's scan chains"
    (Term.const run)

let tracecheck_cmd =
  let run input to_chrome summary =
    let finish = function
      | Ok n ->
        Printf.printf "%s: %d events, all lines valid\n" input n;
        if summary then begin
          (* the file is valid, so it reads back *)
          let events = Result.get_ok (Trace.read_file input) in
          Printf.printf "%-32s %8s %10s %10s\n" "span" "count" "total_s" "self_s";
          List.iter
            (fun (t : Trace.span_total) ->
              Printf.printf "%-32s %8d %10.4f %10.4f\n" t.name t.count
                (t.total_us /. 1e6) (t.self_us /. 1e6))
            (Trace.summary events)
        end;
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
      value & opt (some output_file) None
      & info [ "to-chrome" ] ~docv:"OUT"
          ~doc:
            "Also convert the JSONL stream to a Chrome trace_event JSON \
             array at $(docv).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Then print, per span name, the count, total and self time \
             (the total less the time of the spans directly inside it), \
             most self time first.")
  in
  Cmd.v
    (Cmd.info "tracecheck"
       ~doc:
         "Strictly validate a JSONL trace written by --trace (every line \
          must parse as an emitted trace event)")
    Term.(ret (const run $ input $ to_chrome $ summary))

let export_cmd =
  let run nl out =
    Orap_netlist.Verilog.print_to_file out nl;
    Printf.printf "wrote %s (structural Verilog, %d gates)\n" out
      (N.gate_count nl)
  in
  Cmd.v (Cmd.info "export" ~doc:"Convert a .bench netlist to structural Verilog")
    Term.(const run $ bench_arg $ output_arg "out.v")

let main =
  Cmd.group
    (Cmd.info "orap" ~version:"1.0.0"
       ~doc:"OraP: oracle-protection logic locking (DATE 2020 reproduction)")
    [ generate_cmd; lock_cmd; atpg_cmd; attack_cmd; robustness_cmd; export_cmd;
      table1_cmd; table2_cmd; security_cmd; trojans_cmd; ablation_cmd;
      scanflow_cmd; tracecheck_cmd ]

let () = exit (Cmd.eval main)
