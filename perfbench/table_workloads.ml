(** The table workloads: the Table I and Table II grids, run through
    [Runner.map_grid] at [jobs] workers.

    The [Library] pass calls the experiments' own [run_profile] per cell.
    The [Sequence] and [Traced] passes run each cell as the same sequence
    of public layer calls that [Table1.run_profile] and [Atpg.run] make,
    with a span around each call, and must reproduce the same rows bit for
    bit; they also return the counts the library keeps to itself (AND
    nodes after synthesis, PODEM calls).

    The seed selects one of [variants] grid root seeds; every row of every
    variant was recorded from the library through the experiment's
    [row_codec] ([--record]) and is the reference each pass is checked
    against. *)

open Common
module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Abc = Orap_synth.Abc_script
module Prng = Orap_sim.Prng
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim
module Podem = Orap_atpg.Podem
module Atpg = Orap_atpg.Atpg
module Runner = Orap_runner.Runner
module Task = Orap_runner.Task
module Table1 = Orap_experiments.Table1
module Table2 = Orap_experiments.Table2

let root_seed seed = 2020 + variant seed

(* Smaller than the experiments' [quick_params] scales (16 and 24), whose
   grids take 15-20 s each on 2 cores: a run must fit several passes. *)
let t1_params ~root_seed = { Table1.quick_params with Table1.scale = 64; seed = root_seed }

let t2_params ~root_seed = { Table2.quick_params with Table2.scale = 96; seed = root_seed }

let toy_profiles = [ "s38417"; "s38584"; "b20" ]

let profiles ~toy =
  if toy then
    List.filter (fun p -> List.mem p.Benchgen.name toy_profiles) Benchgen.table1_profiles
  else Benchgen.table1_profiles

(* --- reference rows: "<root seed>\t<row as encoded by row_codec>" --- *)

let reference_file table = Filename.concat !reference_dir (table ^ ".tsv")

let load_reference table =
  let ic = open_in (reference_file table) in
  let rows = Hashtbl.create 128 in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '\t' with
       | Some i ->
         let row = String.sub line (i + 1) (String.length line - i - 1) in
         let name = List.hd (Runner.unfields row) in
         Hashtbl.replace rows (int_of_string (String.sub line 0 i), name) row
       | None -> ()
     done
   with End_of_file -> close_in ic);
  rows

(** Regenerate the reference rows of every variant through the library's
    own [Table1.run] / [Table2.run]. *)
let record () =
  let write table rows_of =
    let oc = open_out (reference_file table) in
    for v = 0 to variants - 1 do
      List.iter
        (fun row -> Printf.fprintf oc "%d\t%s\n" (2020 + v) row)
        (rows_of (2020 + v))
    done;
    close_out oc
  in
  let options = { Runner.default_options with Runner.jobs } in
  write "table1" (fun root_seed ->
      Table1.run ~params:(t1_params ~root_seed) ~options ()
      |> List.map Table1.row_codec.Runner.encode);
  write "table2" (fun root_seed ->
      Table2.run ~params:(t2_params ~root_seed) ~options ()
      |> List.map Table2.row_codec.Runner.encode)

(* --- traced cells: the library's call sequence, one span per call --- *)

let span = Telemetry.span

(* a cell's fixture, as both experiments build it: the scaled profile, its
   netlist and the weighted-locked netlist *)
let fixture ~scale profile =
  let profile = if scale = 1 then profile else Benchgen.scale ~factor:scale profile in
  let nl = span "benchgen.generate" (fun () -> Benchgen.of_profile profile) in
  let locked =
    span "locking.lock" (fun () ->
        Weighted.lock nl ~key_size:profile.Benchgen.lfsr_size
          ~ctrl_inputs:profile.Benchgen.ctrl_inputs)
  in
  (profile, nl, locked)

(* Table I's OraP design around the locked netlist *)
let protect ~seed nl locked =
  span "core.protect" (fun () ->
      Orap.protect
        ~config:
          { (Orap.default_config ~kind:Orap.Basic ~num_ffs:(min 32 (N.num_outputs nl / 2)) ())
            with Orap.seed = seed }
        locked)

let t1_cell_traced (p : Table1.params) ~seed profile : Table1.row * (string * int) list =
  let profile, nl, locked = fixture ~scale:p.scale profile in
  let design = protect ~seed nl locked in
  let rng = Prng.create (seed + 3) in
  let gate_words =
    p.hd_words * (N.num_nodes nl + N.num_nodes locked.Locked.netlist)
  in
  let hd_sum = ref 0.0 in
  for k = 1 to p.hd_keys do
    let key = Prng.bool_array rng (Locked.key_size locked) in
    hd_sum :=
      !hd_sum
      +. span "sim.hd"
           ~args:[ ("gate_words", Telemetry.Int gate_words) ]
           (fun () ->
             Locked.hamming_vs_original ~seed:(seed + k) ~words:p.hd_words locked key)
  done;
  let hd = !hd_sum /. float_of_int p.hd_keys in
  let evaluate nl =
    span "synth.evaluate"
      ~exit_args:(fun m -> [ ("ands", Telemetry.Int m.Abc.ands) ])
      (fun () -> Abc.evaluate ~effort:p.synth_effort nl)
  in
  let mo = evaluate nl in
  let mp = evaluate locked.Locked.netlist in
  let orap_ands =
    span "core.hardware" (fun () -> Orap.hardware_and_nodes (Orap.hardware design))
  in
  let area_pct =
    100.0 *. float_of_int (mp.Abc.ands + orap_ands - mo.Abc.ands) /. float_of_int mo.Abc.ands
  in
  let delay_pct =
    if mo.Abc.levels = 0 then 0.0
    else
      100.0
      *. float_of_int (max 0 (mp.Abc.levels - mo.Abc.levels))
      /. float_of_int mo.Abc.levels
  in
  ( {
      Table1.name = profile.Benchgen.name;
      gates = N.gate_count nl;
      outputs = N.num_outputs nl;
      lfsr_size = profile.Benchgen.lfsr_size;
      ctrl_inputs = profile.Benchgen.ctrl_inputs;
      hd_pct = hd;
      area_pct;
      delay_pct;
    },
    [ ("synth.ands_out", mo.Abc.ands + mp.Abc.ands) ] )

(* [Atpg.run], call by call; also returns the number of PODEM calls *)
let t2_side_traced ~seed (p : Table2.params) (nl : N.t) : Table2.side * int =
  let faults =
    span "faultsim.collapse"
      ~exit_args:(fun f -> [ ("faults", Telemetry.Int (Array.length f)) ])
      (fun () -> Fault.collapsed_list nl)
  in
  let total = Array.length faults in
  let remaining = Array.make total true in
  let stats =
    span "faultsim.random"
      ~exit_args:(fun st -> [ ("detected", Telemetry.Int st.Fsim.detected) ])
      (fun () -> Fsim.random_simulate ~seed ~words:p.random_words nl faults remaining)
  in
  let engine = span "atpg.setup" (fun () -> Podem.create nl) in
  let fsim = span "faultsim.setup" (fun () -> Fsim.create nl) in
  let rng = Prng.create (seed + 1) in
  let redundant = ref 0 and aborted = ref 0 and det = ref stats.Fsim.detected in
  let calls = ref 0 in
  Array.iteri
    (fun i fault ->
      if remaining.(i) then begin
        incr calls;
        match
          span "atpg.podem"
            ~exit_args:(function
              | Podem.Test _ -> [ ("test", Telemetry.Bool true) ] | _ -> [])
            (fun () -> Podem.run engine fault ~backtrack_limit:p.backtrack_limit)
        with
        | Podem.Test assignment ->
          let pattern =
            Array.map (function Some b -> b | None -> Prng.bool rng) assignment
          in
          let dropped =
            span "faultsim.pattern" (fun () ->
                Fsim.simulate_pattern fsim pattern faults remaining)
          in
          det := !det + dropped;
          if remaining.(i) then begin
            remaining.(i) <- false;
            incr det
          end
        | Podem.Redundant -> incr redundant
        | Podem.Aborted -> incr aborted
      end)
    faults;
  let r =
    { Atpg.total_faults = total; detected = !det; redundant = !redundant;
      aborted = !aborted; random_detected = stats.Fsim.detected; patterns = [] }
  in
  ( { Table2.fc_pct = Atpg.coverage r; redundant_aborted = Atpg.redundant_plus_aborted r;
      total_faults = total },
    !calls )

let t2_faults (r : Table2.row) =
  ( "faultsim.faults",
    r.Table2.original.Table2.total_faults + r.Table2.protected_.Table2.total_faults )

let t2_cell_traced (p : Table2.params) ~seed profile : Table2.row * (string * int) list =
  let profile, nl, locked = fixture ~scale:p.scale profile in
  let original, c0 = t2_side_traced ~seed p nl in
  let protected_, c1 = t2_side_traced ~seed p locked.Locked.netlist in
  let row = { Table2.name = profile.Benchgen.name; original; protected_ } in
  (row, [ t2_faults row; ("atpg.podem_calls", c0 + c1) ])

(* --- the grid pass shared by both tables --- *)

(* [cell] is the library's path and [cell_traced] the traced call sequence;
   each returns its row and its counts *)
let grid_setup ~table ~root_seed ~id ~encode ~cell ~cell_traced ~check_fixture ~toy () =
  let reference = load_reference table in
  let profiles = profiles ~toy in
  let lookup row_name = Hashtbl.find_opt reference (root_seed, row_name) in
  (* build every cell's fixture once and check its size against the
     reference row, so a fixture that drifted fails before any timing *)
  List.iter
    (fun p ->
      let seed = Task.derive_seed ~root_seed ~id:(id p) in
      match check_fixture ~seed ~lookup p with
      | None -> ()
      | Some why -> failwith (Printf.sprintf "%s fixture %s: %s" table p.Benchgen.name why))
    profiles;
  let options = { Runner.default_options with Runner.jobs; root_seed } in
  fun mode ->
    let cell = if mode = Library then cell else cell_traced in
    (* calibration samples before and after the grid, and on each cell's
       worker after the cell, inside the grid's makespan *)
    let calibrate = mode = Library in
    let sample () = if calibrate then [ Calib.sample () ] else [] in
    let first = sample () in
    let (cells, wall_s, cpu_s), events =
      with_trace ~traced:(mode = Traced) (fun () ->
          timed (fun () ->
              span "runner.map_grid" (fun () ->
                  Runner.map_grid ~options ~id
                    ~f:(fun ~seed p ->
                      let t0 = now () in
                      let r = try Ok (cell ~seed p) with e -> Error e in
                      let dt = now () -. t0 and h = heap_mb () in
                      (r, dt, h, sample ()))
                    profiles)))
    in
    let samples = first @ List.concat_map (fun (_, _, _, s) -> s) cells @ sample () in
    let item_s = List.map (fun (_, dt, _, _) -> dt) cells in
    (* reference checks, outside the timed region *)
    let notes =
      List.filter_map
        (fun (r, _, _, _) ->
          match r with
          | Error e -> Some (table ^ ": a cell raised " ^ Printexc.to_string e)
          | Ok (row, _) -> (
            let got = encode row in
            let name = List.hd (Runner.unfields got) in
            match lookup name with
            | Some expected when expected = got -> None
            | Some expected ->
              Some (Printf.sprintf "%s row %s: got %S, reference %S" table name got expected)
            | None -> Some (Printf.sprintf "%s row %s: no reference row" table name)))
        cells
    in
    {
      wall_s;
      cpu_s;
      item_s;
      scale = Calib.scale samples;
      failed = List.length notes;
      counts = add_counts (List.filter_map (fun (r, _, _, _) -> Result.to_option r |> Option.map snd) cells);
      notes;
      events;
      heap_mb = List.fold_left (fun a (_, _, h, _) -> Float.max a h) 0.0 cells;
      item_heap_mb = 0.0;
    }

let table1 =
  {
    name = "table1";
    parallel = true;
    trace_setup = false;
    setup =
      (fun ~toy ~seed ->
        let root_seed = root_seed seed in
        let params = t1_params ~root_seed in
        let check_fixture ~seed ~lookup p =
          let profile, nl, locked = fixture ~scale:params.Table1.scale p in
          ignore (protect ~seed nl locked);
          match Option.bind (lookup profile.Benchgen.name) Table1.row_codec.Runner.decode with
          | None -> Some "no reference row"
          | Some r when r.Table1.gates <> N.gate_count nl || r.Table1.outputs <> N.num_outputs nl
            ->
            Some "gate or output count differs from the reference row"
          | Some _ -> None
        in
        grid_setup ~table:"table1" ~root_seed ~id:(Table1.cell_id params)
          ~encode:Table1.row_codec.Runner.encode
          ~cell:(fun ~seed p -> (Table1.run_profile ~seed params p, []))
          ~cell_traced:(fun ~seed p -> t1_cell_traced params ~seed p)
          ~check_fixture ~toy);
  }

let table2 =
  {
    name = "table2";
    parallel = true;
    trace_setup = false;
    setup =
      (fun ~toy ~seed ->
        let root_seed = root_seed seed in
        let params = t2_params ~root_seed in
        let check_fixture ~seed:_ ~lookup p =
          let profile, nl, locked = fixture ~scale:params.Table2.scale p in
          let faults nl = Array.length (Fault.collapsed_list nl) in
          match Option.bind (lookup profile.Benchgen.name) Table2.row_codec.Runner.decode with
          | None -> Some "no reference row"
          | Some r
            when r.Table2.original.Table2.total_faults <> faults nl
                 || r.Table2.protected_.Table2.total_faults <> faults locked.Locked.netlist ->
            Some "fault count differs from the reference row"
          | Some _ -> None
        in
        grid_setup ~table:"table2" ~root_seed ~id:(Table2.cell_id params)
          ~encode:Table2.row_codec.Runner.encode
          ~cell:(fun ~seed p ->
            let row = Table2.run_profile ~seed params p in
            (row, [ t2_faults row ]))
          ~cell_traced:(fun ~seed p -> t2_cell_traced params ~seed p)
          ~check_fixture ~toy);
  }
