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

(* --- chip scan access against a shift-by-shift reference --- *)

module Chip = Orap_core.Chip
module Orap = Orap_core.Orap
module Prng = Orap_sim.Prng

(* The reference chain: one shift moves every cell one place towards
   scan-out, takes [scan_in] into cell 0 and returns the bit that left the
   last cell. *)
let shift order ~read ~write ~scan_in =
  let n = Array.length order in
  let out = read order.(n - 1) in
  for i = n - 1 downto 1 do
    write order.(i) (read order.(i - 1))
  done;
  write order.(0) scan_in;
  out

let styles = [| Scan.Key_first; Scan.Interleaved; Scan.Key_last |]

(* one protected design per chain style *)
let designs =
  lazy
    (let nl = random_netlist ~inputs:12 ~outputs:10 ~gates:90 19 in
     let lk = Orap_locking.Weighted.lock nl ~key_size:8 ~ctrl_inputs:3 in
     Array.map
       (fun chain_style ->
         Orap.protect
           ~config:{ (Orap.default_config ~num_ffs:6 ()) with Orap.chain_style }
           lk)
       styles)

(* P: over every chain style, and over the chain scenario (b)'s Trojan
   fabricates without key cells, [scan_load] then [scan_dump] leave what a
   session of chain-length shifts in and chain-length shifts out leaves on
   a model of the registers: the dump is the loaded image in chain order,
   every chain cell ends at zero, and the chip's registers equal the
   model's *)
let prop_scan_access_matches_shifts =
  Prop.to_alcotest ~count:60 ~name:"scan load/dump match a shift-by-shift session"
    ~gen:(Gen.pair (Gen.int_range 0 (2 * Array.length styles - 1)) (Gen.int_range 0 0x3FFFFFFF))
    ~print:(fun (case, seed) -> Printf.sprintf "case %d, seed %d" case seed)
    (fun (case, seed) ->
      let design = (Lazy.force designs).(case mod Array.length styles) in
      let keyless = case >= Array.length styles in
      let chip =
        if keyless then Chip.create ~trojan:Chip.Exclude_lfsr_from_scan design
        else Chip.create design
      in
      let rng = Prng.create seed in
      if Prng.bool rng then Chip.unlock chip;
      let key =
        if Prng.bool rng then Some (Prng.bool_array rng (Orap.key_size design))
        else None
      in
      let state = Prng.bool_array rng (Orap.num_ffs design) in
      let order =
        Scan.order
          (if keyless then Scan.without_keys design.Orap.chain else design.Orap.chain)
      in
      (* the model registers start from the chip's contents *)
      let model_key = Chip.key_register chip and model_ffs = Chip.ff_state chip in
      let read = function Scan.Key i -> model_key.(i) | Scan.State j -> model_ffs.(j) in
      let write cell v =
        match cell with
        | Scan.Key i -> model_key.(i) <- v
        | Scan.State j -> model_ffs.(j) <- v
      in
      let image =
        Array.map
          (function
            | Scan.Key i -> (match key with Some k -> k.(i) | None -> false)
            | Scan.State j -> state.(j))
          order
      in
      let n = Array.length order in
      (* the bit for the last cell goes in first *)
      for p = n - 1 downto 0 do
        ignore (shift order ~read ~write ~scan_in:image.(p))
      done;
      (* the last cell comes out first *)
      let out = Array.init n (fun _ -> shift order ~read ~write ~scan_in:false) in
      let expected = Array.mapi (fun p cell -> (cell, out.(n - 1 - p))) order in
      Chip.scan_load ?key chip ~state;
      let dump = Chip.scan_dump chip in
      let chip_key = Chip.key_register chip and chip_ffs = Chip.ff_state chip in
      dump = expected
      && Array.for_all
           (function Scan.Key i -> not chip_key.(i) | Scan.State j -> not chip_ffs.(j))
           order
      && chip_key = model_key && chip_ffs = model_ffs)

let suite =
  ( "dft",
    [
      tc "pulse generator edge detection" `Quick test_pulse_rising_edge_only;
      tc "pulse generator cost" `Quick test_pulse_gen_cost;
      tc "chain styles cover all cells" `Quick test_chain_styles_complete;
      tc "key-first ordering" `Quick test_key_first_ordering;
      tc "interleaving spreads keys" `Quick test_interleaving_spreads;
      tc "bypass MUX guideline" `Quick test_bypass_mux_count_guideline;
      prop_scan_access_matches_shifts;
    ] )
