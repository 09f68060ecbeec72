(** Verilog export and the CLI's [.bench] readers. *)

open Util
module N = Orap_netlist.Netlist
module Verilog = Orap_netlist.Verilog

let test_verilog_structure () =
  let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:30 7 in
  let v = Verilog.of_netlist ~module_name:"dut" nl in
  check Alcotest.bool "module header" true (contains v "module dut(");
  check Alcotest.bool "endmodule" true (contains v "endmodule");
  check Alcotest.bool "inputs declared" true (contains v "input pi0;");
  check Alcotest.bool "outputs assigned" true (contains v "assign po0 = ");
  (* one primitive instance per logic gate (excluding Mux/consts) *)
  let gates = ref 0 in
  for i = 0 to N.num_nodes nl - 1 do
    match N.kind nl i with
    | Orap_netlist.Gate.Input | Orap_netlist.Gate.Const0
    | Orap_netlist.Gate.Const1 | Orap_netlist.Gate.Mux ->
      ()
    | _ -> incr gates
  done;
  let count_instances =
    List.length
      (List.filter
         (fun line -> contains line "g" && contains line "(")
         (String.split_on_char '\n' v))
  in
  check Alcotest.bool "instances emitted" true (count_instances >= !gates)

(* exact expected emission for a fixed small circuit, so any formatting or
   ordering change in the writer is flagged deliberately *)
let test_verilog_golden () =
  let nl = full_adder () in
  let expected =
    "module fa(a, b, cin, po0, po1);\n\
    \  input a;\n\
    \  input b;\n\
    \  input cin;\n\
    \  output po0;\n\
    \  output po1;\n\
    \  wire s1;\n\
    \  wire sum;\n\
    \  wire n5;\n\
    \  wire n6;\n\
    \  wire cout;\n\
    \  xor g1(s1, a, b);\n\
    \  xor g2(sum, s1, cin);\n\
    \  and g3(n5, a, b);\n\
    \  and g4(n6, s1, cin);\n\
    \  or g5(cout, n5, n6);\n\
    \  assign po0 = sum;\n\
    \  assign po1 = cout;\n\
     endmodule\n"
  in
  check Alcotest.string "verilog golden" expected
    (Verilog.of_netlist ~module_name:"fa" nl)

let test_verilog_deterministic () =
  let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:30 7 in
  check Alcotest.bool "stable output" true
    (Verilog.of_netlist nl = Verilog.of_netlist nl)

(* a CLI's stderr with runs of spaces and newlines collapsed: cmdliner
   wraps long messages *)
let read_squeezed path =
  In_channel.with_open_text path In_channel.input_all
  |> String.map (fun c -> if c = '\n' then ' ' else c)
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> String.concat " "

(* every subcommand that reads a .bench file reports a missing or
   malformed one as a usage error (exit 124) naming the file, rather than
   as an uncaught exception (exit 125) *)
let test_cli_rejects_bad_bench () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let bench text =
    let path = Filename.temp_file "orap" ".bench" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    path
  in
  let cases =
    [
      (bench "INPUT(a)\nOUTPUT(z)\n", "undefined signal");
      (bench "INPUT(a)\nz = AND(a\n", "line 2:");
      (bench "INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)\n", "cannot take 2 fanins");
      (Filename.concat (Filename.get_temp_dir_name ()) "orap-missing.bench", "No such file");
    ]
  in
  let err = Filename.temp_file "orap" ".err" in
  List.iter
    (fun cmd ->
      List.iter
        (fun (path, msg) ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s %s > /dev/null 2> %s" (Filename.quote cli) cmd
                 (Filename.quote path) (Filename.quote err))
          in
          let stderr = read_squeezed err in
          let what = Printf.sprintf "orap %s, %s" cmd msg in
          check Alcotest.int (what ^ ": exit code") 124 code;
          if not (contains stderr (path ^ ": ") && contains stderr msg) then
            Alcotest.failf "%s: the message does not name the file and the fault: %S"
              what stderr)
        cases)
    [ "lock"; "atpg"; "export" ];
  List.iter (fun (path, _) -> if Sys.file_exists path then Sys.remove path) cases;
  Sys.remove err

(* sizes the generator, a lock or a fixture cannot take, and attack,
   robustness or grid settings outside their range, are usage errors (exit
   124) that say why, not uncaught exceptions (exit 125), a keyless lock, a
   [-nan] table or a table of negatively scaled rows *)
let test_cli_rejects_bad_sizes () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let path = Filename.temp_file "orap" ".bench" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n");
  let out = Filename.temp_file "orap" ".out" and err = Filename.temp_file "orap" ".err" in
  List.iter
    (fun (args, msg) ->
      (* a generate or lock that got through would write its output here *)
      let out_opt =
        if String.starts_with ~prefix:"generate" args || String.starts_with ~prefix:"lock" args
        then " -o " ^ Filename.quote out
        else ""
      in
      let code =
        Sys.command
          (Printf.sprintf "%s %s%s > /dev/null 2> %s" (Filename.quote cli) args out_opt
             (Filename.quote err))
      in
      let stderr = read_squeezed err in
      check Alcotest.int (args ^ ": exit code") 124 code;
      if not (contains stderr msg) then Alcotest.failf "%s: %S lacks %S" args stderr msg)
    [
      ("generate --gates 0", "below the minimum 1");
      ("generate --inputs 1", "below the minimum 2");
      ("generate --outputs 0", "below the minimum 1");
      ("lock --key-size 0 " ^ path, "below the minimum 1");
      ("lock --technique sarlock --key-size 0 " ^ path, "below the minimum 1");
      ("lock --ctrl-inputs 0 " ^ path, "below the minimum 1");
      ("lock --technique random --key-size 100 " ^ path, "Random_ll.lock: circuit too small");
      ("lock --key-size 64 " ^ path, "Weighted.lock: circuit too small");
      ("lock --technique sarlock --key-size 100 " ^ path,
       "sarlock(k=2) builds a 2-bit key on this circuit, not 100");
      ("lock --technique antisat --key-size 5 " ^ path,
       "antisat(n=2) builds a 4-bit key on this circuit, not 5");
      ("lock --technique antisat --key-size 1 " ^ path,
       "antisat(n=1) builds a 2-bit key on this circuit, not 1");
      ("attack --attack foo", "invalid value 'foo'");
      ("attack --oracle foo", "invalid value 'foo'");
      ("attack --noise abc", "invalid value 'abc'");
      ("attack --noise 2", "2 is not a probability in [0, 1]");
      ("attack --votes 2", "2 is not an odd count of at least 1");
      ("attack --query-budget=-1", "-1 is below the minimum 0");
      ("robustness --attacks foo", "invalid value 'foo'");
      ("robustness --attacks sat,foo", "invalid value 'foo'");
      ("robustness --oracle foo", "invalid value 'foo'");
      ("robustness --noise 0.0,abc", "invalid value 'abc'");
      ("robustness --noise 2", "2 is not a probability in [0, 1]");
      ("robustness --votes 2", "2 is not an odd count of at least 1");
      ("robustness --trials 0", "0 is below the minimum 1");
      ("robustness --query-budget 0,-5", "-5 is below the minimum 0");
      ("attack --validate=-3", "-3 is below the minimum 0");
      ("attack --wall-clock=-1", "-1 is not a non-negative number of seconds");
      ("attack --max-conflicts=-2", "-2 is below the minimum 0");
      ("robustness --max-iterations=-1", "-1 is below the minimum 0");
      ("robustness --wall-clock=-1", "-1 is not a non-negative number of seconds");
      ("robustness --max-conflicts=-2", "-2 is below the minimum 0");
      ("table2 --scale=-500", "-500 is below the minimum 0");
      ("table1 --jobs=-3", "-3 is below the minimum 0");
      ("attack --gates 20 --key-size 64", "Weighted.lock: circuit too small");
      ("robustness --gates 3 --trials 1", "Weighted.lock: circuit too small");
      ("trojans --resume", "--resume needs --journal");
    ];
  List.iter Sys.remove [ path; out; err ]

(* every output path the CLI takes is opened while the command line is
   parsed: one it cannot write is a usage error (exit 124) naming the path
   and the system's reason, before any work, not an uncaught [Sys_error]
   (exit 125) or a [--metrics] failure after the whole run *)
let test_cli_rejects_unwritable_outputs () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let bench = Filename.temp_file "orap" ".bench" and trace = Filename.temp_file "orap" ".jsonl" in
  Out_channel.with_open_text bench (fun oc ->
      output_string oc "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n");
  (* a path under a regular file: no system lets it be created *)
  let not_dir = Filename.temp_file "orap" ".file" in
  let err = Filename.temp_file "orap" ".err" in
  List.iter
    (fun (args, name) ->
      let dst = Filename.concat not_dir name in
      let args = args (Filename.quote dst) in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote cli) args
             (Filename.quote err))
      in
      let stderr = read_squeezed err in
      check Alcotest.int (args ^ ": exit code") 124 code;
      if not (contains stderr (dst ^ ": Not a directory")) then
        Alcotest.failf "%s: %S does not name the path and the reason" args stderr)
    [
      (( ^ ) "attack --trace ", "t.jsonl");
      (( ^ ) "attack --trace ", "t.json");
      (( ^ ) "attack --metrics ", "m.json");
      (( ^ ) "trojans --journal ", "j.jsonl");
      (( ^ ) "generate -o ", "g.bench");
      ((fun dst -> "lock " ^ Filename.quote bench ^ " -o " ^ dst), "l.bench");
      ((fun dst -> "export " ^ Filename.quote bench ^ " -o " ^ dst), "e.v");
      ((fun dst -> "tracecheck " ^ Filename.quote trace ^ " --to-chrome " ^ dst), "c.json");
    ];
  (* the default [-o] is checked too: here the working directory is gone *)
  let code =
    Sys.command
      (Printf.sprintf "d=$(mktemp -d) && cd \"$d\" && rmdir \"$d\" && %s generate 2> %s"
         (Filename.quote cli) (Filename.quote err))
  in
  check Alcotest.int "generate into a removed directory: exit code" 124 code;
  check Alcotest.bool "the message names the default output" true
    (contains (read_squeezed err) "out.bench: No such file or directory");
  List.iter Sys.remove [ bench; trace; not_dir; err ]

(* without --key-size, lock fits the key to the circuit: 64 bits do not
   fit a 12-gate circuit, and the lock still succeeds with a smaller key *)
let test_cli_lock_default_key_fits () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let nl = random_netlist ~inputs:4 ~outputs:2 ~gates:12 3 in
  let path = Filename.temp_file "orap" ".bench" and out = Filename.temp_file "orap" ".bench" in
  Orap_netlist.Bench_format.print_to_file path nl;
  let code =
    Sys.command
      (Printf.sprintf "%s lock %s -o %s > /dev/null 2>&1" (Filename.quote cli)
         (Filename.quote path) (Filename.quote out))
  in
  check Alcotest.int "exit code" 0 code;
  let locked = (Orap_netlist.Bench_format.parse_file out).Orap_netlist.Bench_format.netlist in
  let keys = N.num_inputs locked - N.num_inputs nl in
  check Alcotest.bool "a key under 64 bits" true (keys >= 1 && keys < 64);
  List.iter Sys.remove [ path; out ]

(* a .json trace is the JSONL stream wrapped as the Chrome array: "[",
   the event lines joined by ",\n", then "]\n"; every event line passes
   the strict trace parser *)
let test_cli_json_trace_framing () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let path = Filename.temp_file "orap" ".json" in
  let code =
    Sys.command
      (Printf.sprintf "%s attack --attack sat --trace %s > /dev/null 2>&1"
         (Filename.quote cli) (Filename.quote path))
  in
  check Alcotest.int "exit code" 0 code;
  let body = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length body in
  check Alcotest.bool "framed by [ and ]\\n" true
    (n > 3 && body.[0] = '[' && String.sub body (n - 2) 2 = "]\n");
  (* event lines hold no raw newline, so every piece but the last ends in
     the "," of a ",\n" separator *)
  let pieces = String.split_on_char '\n' (String.sub body 1 (n - 3)) in
  let last = List.length pieces - 1 in
  let lines =
    List.mapi
      (fun i piece ->
        let len = String.length piece in
        if i = last then piece
        else if len > 0 && piece.[len - 1] = ',' then String.sub piece 0 (len - 1)
        else Alcotest.failf "line %d does not end in \",\": %S" (i + 1) piece)
      pieces
  in
  List.iter
    (fun line ->
      match Orap_telemetry.Trace.parse_line line with
      | Ok _ -> ()
      | Error reason -> Alcotest.failf "%s: %S" reason line)
    lines;
  check Alcotest.bool "the attack's run span is there" true
    (List.exists (fun l -> contains l {|"name":"sat_attack.run"|}) lines);
  Sys.remove path

(* [--jobs] above the core count warns once on stderr and changes no byte
   of the table but its timings.  The grid has two cells, so the pool's
   clamp to the cell count starts no more domains than [--jobs 2] would. *)
let test_cli_warns_on_excess_jobs () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let out = Filename.temp_file "orap" ".out" and err = Filename.temp_file "orap" ".err" in
  let run jobs =
    let code =
      Sys.command
        (Printf.sprintf
           "%s robustness --noise 0 --query-budget 0 --attacks sat,hill --trials 1 \
            --gates 100 --key-size 8 --jobs %d > %s 2> %s"
           (Filename.quote cli) jobs (Filename.quote out) (Filename.quote err))
    in
    check Alcotest.int (Printf.sprintf "--jobs %d: exit code" jobs) 0 code;
    (* the table with its "Time (s)" cells blanked *)
    let lines = In_channel.with_open_text out In_channel.input_lines in
    let time_col =
      List.find_map
        (fun l ->
          List.find_index (fun c -> String.trim c = "Time (s)") (String.split_on_char '|' l))
        lines
    in
    let mask l =
      match (time_col, String.split_on_char '|' l) with
      | Some i, cells when List.length cells > i ->
        String.concat "|" (List.mapi (fun j c -> if j = i then "" else c) cells)
      | _ -> l
    in
    (List.map mask lines, In_channel.with_open_text err In_channel.input_lines)
  in
  let cores = Domain.recommended_domain_count () in
  let table, warnings = run 1 in
  check Alcotest.(list string) "--jobs 1: no warning" [] warnings;
  let table', warnings' = run (cores + 1) in
  check Alcotest.(list string) "same table" table table';
  check Alcotest.int "one stderr line" 1 (List.length warnings');
  let w = List.hd warnings' in
  if not (contains w "warning" && contains w (Printf.sprintf "%d cores" cores)) then
    Alcotest.failf "unexpected warning %S" w;
  List.iter Sys.remove [ out; err ]

(* a traced Table I run breaks down by span: the summary lists the
   synthesis passes and the grid cells around them *)
let test_cli_tracecheck_summary () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let trace = Filename.temp_file "orap" ".jsonl" and out = Filename.temp_file "orap" ".txt" in
  let run args =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args (Filename.quote out))
  in
  check Alcotest.int "table1 exit code" 0
    (run ("table1 --scale 64 --trace " ^ Filename.quote trace));
  check Alcotest.int "tracecheck exit code" 0
    (run ("tracecheck --summary " ^ Filename.quote trace));
  let lines = In_channel.with_open_text out In_channel.input_lines in
  let row name =
    List.find_opt
      (fun l -> match String.split_on_char ' ' l with n :: _ -> n = name | [] -> false)
      lines
  in
  List.iter
    (fun (name, count) ->
      match row name with
      | None -> Alcotest.failf "no %s row in %S" name (String.concat "\n" lines)
      | Some l ->
        let fields = List.filter (( <> ) "") (String.split_on_char ' ' l) in
        check Alcotest.string (name ^ " count") (string_of_int count) (List.nth fields 1))
    [ ("runner.cell", 8); ("synth.refactor", 16); ("synth.rewrite", 16);
      ("synth.balance", 16) ];
  List.iter Sys.remove [ trace; out ]

let suite =
  ( "tools",
    [
      tc "verilog structure" `Quick test_verilog_structure;
      tc "verilog golden" `Quick test_verilog_golden;
      tc "verilog deterministic" `Quick test_verilog_deterministic;
      tc "CLI rejects a bad .bench" `Quick test_cli_rejects_bad_bench;
      tc "CLI rejects sizes it cannot build" `Quick test_cli_rejects_bad_sizes;
      tc "CLI rejects output paths it cannot write" `Quick test_cli_rejects_unwritable_outputs;
      tc "CLI lock fits its default key" `Quick test_cli_lock_default_key_fits;
      tc "CLI .json trace is the framed JSONL stream" `Quick test_cli_json_trace_framing;
      tc "CLI warns when --jobs exceeds the cores" `Quick test_cli_warns_on_excess_jobs;
      tc "CLI tracecheck --summary of a traced Table I" `Quick test_cli_tracecheck_summary;
    ] )
