(** Verilog export, ATPG test compaction and the CLI's [.bench] readers. *)

open Util
module N = Orap_netlist.Netlist
module Verilog = Orap_netlist.Verilog
module Atpg = Orap_atpg.Atpg
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim

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

let test_dot_golden () =
  let nl = full_adder () in
  let expected =
    "digraph fa {\n\
    \  rankdir=LR;\n\
    \  n0 [label=\"a\\nINPUT\" shape=invtriangle];\n\
    \  n1 [label=\"b\\nINPUT\" shape=invtriangle];\n\
    \  n2 [label=\"cin\\nINPUT\" shape=invtriangle];\n\
    \  n3 [label=\"s1\\nXOR\" shape=box];\n\
    \  n0 -> n3;\n\
    \  n1 -> n3;\n\
    \  n4 [label=\"sum\\nXOR\" shape=box];\n\
    \  n3 -> n4;\n\
    \  n2 -> n4;\n\
    \  n5 [label=\"n5\\nAND\" shape=box];\n\
    \  n0 -> n5;\n\
    \  n1 -> n5;\n\
    \  n6 [label=\"n6\\nAND\" shape=box];\n\
    \  n3 -> n6;\n\
    \  n2 -> n6;\n\
    \  n7 [label=\"cout\\nOR\" shape=box];\n\
    \  n5 -> n7;\n\
    \  n6 -> n7;\n\
    \  po0 [label=\"PO0\" shape=triangle];\n\
    \  n4 -> po0;\n\
    \  po1 [label=\"PO1\" shape=triangle];\n\
    \  n7 -> po1;\n\
     }\n"
  in
  check Alcotest.string "dot golden" expected
    (Orap_netlist.Dot.of_netlist ~graph_name:"fa" nl)

(* every node and every fanin edge of the source netlist must appear in the
   dot text, whatever the circuit *)
let test_dot_covers_structure () =
  let nl = random_netlist ~inputs:5 ~outputs:3 ~gates:25 11 in
  let dot = Orap_netlist.Dot.of_netlist nl in
  for i = 0 to N.num_nodes nl - 1 do
    check Alcotest.bool "node present" true
      (contains dot (Printf.sprintf "n%d [label=" i));
    Array.iter
      (fun f ->
        check Alcotest.bool "edge present" true
          (contains dot (Printf.sprintf "n%d -> n%d;" f i)))
      (N.fanins nl i)
  done

let test_verilog_deterministic () =
  let nl = random_netlist ~inputs:6 ~outputs:4 ~gates:30 7 in
  check Alcotest.bool "stable output" true
    (Verilog.of_netlist nl = Verilog.of_netlist nl)

let test_compaction_preserves_coverage () =
  let nl = random_netlist ~inputs:14 ~outputs:10 ~gates:160 9 in
  (* force deterministic phase to generate many patterns *)
  let r = Atpg.run ~random_words:1 ~backtrack_limit:128 nl in
  let original = r.Atpg.patterns in
  let compacted = Atpg.compact_patterns nl original in
  check Alcotest.bool "not longer" true
    (List.length compacted <= List.length original);
  (* coverage of the compacted set equals the original set's *)
  let covered patterns =
    let faults = Fault.collapsed_list nl in
    let remaining = Array.make (Array.length faults) true in
    let fsim = Fsim.create nl in
    List.iter
      (fun p -> ignore (Fsim.simulate_pattern fsim p faults remaining))
      patterns;
    Array.fold_left (fun acc r -> if r then acc else acc + 1) 0 remaining
  in
  check Alcotest.int "same deterministic coverage" (covered original)
    (covered compacted)

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
          (* cmdliner wraps long messages: compare with spaces collapsed *)
          let stderr =
            In_channel.with_open_text err In_channel.input_all
            |> String.map (fun c -> if c = '\n' then ' ' else c)
            |> String.split_on_char ' '
            |> List.filter (( <> ) "")
            |> String.concat " "
          in
          let what = Printf.sprintf "orap %s, %s" cmd msg in
          check Alcotest.int (what ^ ": exit code") 124 code;
          if not (contains stderr (path ^ ": ") && contains stderr msg) then
            Alcotest.failf "%s: the message does not name the file and the fault: %S"
              what stderr)
        cases)
    [ "lock"; "atpg"; "export" ];
  List.iter (fun (path, _) -> if Sys.file_exists path then Sys.remove path) cases;
  Sys.remove err

(* sizes the generator or a lock cannot take are usage errors (exit 124)
   that say why, not uncaught exceptions (exit 125) or a keyless lock *)
let test_cli_rejects_bad_sizes () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/orap_cli.exe" in
  let path = Filename.temp_file "orap" ".bench" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n");
  let out = Filename.temp_file "orap" ".out" and err = Filename.temp_file "orap" ".err" in
  List.iter
    (fun (args, msg) ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s -o %s > /dev/null 2> %s" (Filename.quote cli) args
             (Filename.quote out) (Filename.quote err))
      in
      let stderr = In_channel.with_open_text err In_channel.input_all in
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
    ];
  List.iter Sys.remove [ path; out; err ]

let suite =
  ( "tools",
    [
      tc "verilog structure" `Quick test_verilog_structure;
      tc "verilog golden" `Quick test_verilog_golden;
      tc "dot golden" `Quick test_dot_golden;
      tc "dot covers structure" `Quick test_dot_covers_structure;
      tc "verilog deterministic" `Quick test_verilog_deterministic;
      tc "compaction preserves coverage" `Quick test_compaction_preserves_coverage;
      tc "CLI rejects a bad .bench" `Quick test_cli_rejects_bad_bench;
      tc "CLI rejects sizes it cannot build" `Quick test_cli_rejects_bad_sizes;
    ] )
