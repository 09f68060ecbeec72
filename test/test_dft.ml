open Util
module Pulse_gen = Orap_dft.Pulse_gen
module Scan = Orap_dft.Scan

let test_pulse_rising_edge_only () =
  let g = Pulse_gen.create () in
  check Alcotest.bool "initial low" false (Pulse_gen.observe g ~scan_enable:false);
  check Alcotest.bool "rising fires" true (Pulse_gen.observe g ~scan_enable:true);
  check Alcotest.bool "hold silent" false (Pulse_gen.observe g ~scan_enable:true);
  check Alcotest.bool "falling silent" false (Pulse_gen.observe g ~scan_enable:false);
  check Alcotest.bool "second rising fires" true (Pulse_gen.observe g ~scan_enable:true)

let test_pulse_gen_cost () =
  check Alcotest.int "gate cost" 1 Pulse_gen.gate_cost

let count_cells chain =
  Array.fold_left
    (fun (k, s) c -> match c with Scan.Key _ -> (k + 1, s) | Scan.State _ -> (k, s + 1))
    (0, 0) (Scan.order chain)

let test_chain_styles_complete () =
  List.iter
    (fun style ->
      let c = Scan.build ~style ~num_key:10 ~num_state:25 () in
      check Alcotest.int "length" 35 (Scan.length c);
      let k, s = count_cells c in
      check Alcotest.int "keys" 10 k;
      check Alcotest.int "states" 25 s)
    [ Scan.Key_first; Scan.Interleaved; Scan.Key_last ]

let test_key_first_ordering () =
  let c = Scan.build ~style:Scan.Key_first ~num_key:3 ~num_state:3 () in
  check Alcotest.(list int) "keys lead" [ 0; 1; 2 ] (Scan.key_positions c)

let test_interleaving_spreads () =
  let c = Scan.build ~style:Scan.Interleaved ~num_key:4 ~num_state:12 () in
  let positions = Scan.key_positions c in
  check Alcotest.int "all keys present" 4 (List.length positions);
  (* interleaved keys must not be contiguous *)
  let contiguous =
    match positions with
    | a :: rest ->
      let rec all_adjacent prev = function
        | [] -> true
        | x :: tl -> x = prev + 1 && all_adjacent x tl
      in
      all_adjacent a rest
    | [] -> false
  in
  check Alcotest.bool "not contiguous" false contiguous

let test_bypass_mux_count_guideline () =
  (* interleaving maximises scenario-(b) MUX count versus grouping *)
  let inter = Scan.build ~style:Scan.Interleaved ~num_key:8 ~num_state:24 () in
  let grouped = Scan.build ~style:Scan.Key_first ~num_key:8 ~num_state:24 () in
  check Alcotest.bool "interleaved costs more"
    true
    (Scan.bypass_mux_count inter > Scan.bypass_mux_count grouped);
  check Alcotest.int "grouped needs one mux" 1 (Scan.bypass_mux_count grouped);
  check Alcotest.int "fully interleaved needs one per key" 8
    (Scan.bypass_mux_count inter)

let test_shift_moves_data () =
  let c = Scan.build ~style:Scan.Key_first ~num_key:2 ~num_state:2 () in
  let key = Array.make 2 false and state = Array.make 2 false in
  let read = function Scan.Key i -> key.(i) | Scan.State j -> state.(j) in
  let write cell v =
    match cell with Scan.Key i -> key.(i) <- v | Scan.State j -> state.(j) <- v
  in
  (* shift in 1,0,0,0: after 4 shifts the 1 sits in the last cell *)
  let out1 = Scan.shift c ~read ~write ~scan_in:true in
  check Alcotest.bool "first out is old last" false out1;
  ignore (Scan.shift c ~read ~write ~scan_in:false);
  ignore (Scan.shift c ~read ~write ~scan_in:false);
  ignore (Scan.shift c ~read ~write ~scan_in:false);
  check Alcotest.bool "bit reached last state cell" true state.(1);
  let out = Scan.shift c ~read ~write ~scan_in:false in
  check Alcotest.bool "and leaves on the next shift" true out

let suite =
  ( "dft",
    [
      tc "pulse generator edge detection" `Quick test_pulse_rising_edge_only;
      tc "pulse generator cost" `Quick test_pulse_gen_cost;
      tc "chain styles cover all cells" `Quick test_chain_styles_complete;
      tc "key-first ordering" `Quick test_key_first_ordering;
      tc "interleaving spreads keys" `Quick test_interleaving_spreads;
      tc "bypass MUX guideline" `Quick test_bypass_mux_count_guideline;
      tc "shift semantics" `Quick test_shift_moves_data;
    ] )
