(** The attack workloads: SAT-family attacks run one after another against
    pinned locked fixtures, each through the functional oracle and through
    the scan port of an unlocked OraP chip.

    The fixtures (netlist, locking scheme, key) are pinned: any change to
    the CNF moves a single miter proof's conflict count by tens of percent,
    so a seed that re-drew the circuits would measure the draw, not the
    code.  The OraP chip's configuration and the order of the items are
    pinned for the same reason: the scan chain decides which key the scan
    oracle answers with, and so the number of DIPs, and the order moved the
    DIP-loop workload's time by a fifth between seeds through the GC.  The
    seed's variant draws AppSAT's probe stream only, so runs with different
    seeds measure run-to-run noise.  The attacks are called directly, so a
    pass runs the same code in every mode. *)

open Common
module Benchgen = Orap_benchgen.Benchgen
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Budget = Orap_attacks.Budget
module Equiv = Orap_proptest.Equiv

type scheme = Random_ll | Weighted of int  (** control-gate width *) | Sarlock | Antisat

type spec = {
  label : string;
  gen_seed : int;
  inputs : int;
  outputs : int;
  gates : int;
  scheme : scheme;
  key_size : int;
  cap : int;  (** DIP-loop iteration cap *)
  capped : bool;  (** every attack on this fixture must stop at the cap *)
}

type attack = Sat | Appsat | Ddip

type oracle_kind = Functional | Orap_scan

type fixture = { spec : spec; locked : Locked.t; chip : Chip.t }

let build spec =
  let nl =
    Telemetry.span "benchgen.generate" (fun () ->
        Benchgen.generate
          { Benchgen.seed = spec.gen_seed; num_inputs = spec.inputs;
            num_outputs = spec.outputs; num_gates = spec.gates })
  in
  let locked =
    Telemetry.span "locking.lock" (fun () ->
        let key_size = spec.key_size in
        match spec.scheme with
        | Random_ll -> Orap_locking.Random_ll.lock nl ~key_size
        | Weighted ctrl_inputs -> Orap_locking.Weighted.lock nl ~key_size ~ctrl_inputs
        | Sarlock -> Orap_locking.Sarlock.lock nl ~key_size
        | Antisat -> Orap_locking.Antisat.lock nl ~key_size)
  in
  let design =
    Telemetry.span "core.protect" (fun () ->
        Orap.protect
          ~config:(Orap.default_config ~kind:Orap.Basic ~num_ffs:(spec.outputs / 2) ())
          locked)
  in
  let chip =
    Telemetry.span "core.unlock" (fun () ->
        let chip = Chip.create design in
        Chip.unlock chip;
        chip)
  in
  { spec; locked; chip }

let attack_name = function Sat -> "sat" | Appsat -> "appsat" | Ddip -> "ddip"

let oracle_name = function Functional -> "functional" | Orap_scan -> "orap-scan"

(* outcome, iterations, conflicts *)
let run_attack ~appsat_seed attack fx oracle =
  let max_iterations = fx.spec.cap and locked = fx.locked in
  match attack with
  | Sat ->
    let r = Orap_attacks.Sat_attack.run ~max_iterations locked oracle in
    Orap_attacks.Sat_attack.(r.outcome, r.iterations, r.conflicts)
  | Appsat ->
    let r = Orap_attacks.Appsat.run ~max_iterations ~seed:appsat_seed locked oracle in
    Orap_attacks.Appsat.(r.outcome, r.iterations, r.conflicts)
  | Ddip ->
    let r = Orap_attacks.Double_dip.run ~max_iterations locked oracle in
    Orap_attacks.Double_dip.(r.outcome, r.iterations, r.conflicts)

(* Does [key] make the locked netlist equivalent to the original?  Proved
   by the independent SAT miter of [Equiv], not by random simulation, which
   passes most wrong SARLock keys. *)
let equivalent fx key =
  let nri = fx.locked.Locked.num_regular_inputs in
  Equiv.equivalent fx.locked.Locked.original
    (Equiv.with_fixed_inputs fx.locked.Locked.netlist
       (List.init (Array.length key) (fun j -> (nri + j, key.(j)))))

let setup ~attacks specs ~toy:_ ~seed () =
  let appsat_seed = 4242 + variant seed in
  let fixtures = List.map build specs in
  let items =
    List.concat_map
      (fun fx ->
        List.concat_map
          (fun o -> List.map (fun a -> (fx, o, a)) attacks)
          [ Functional; Orap_scan ])
      fixtures
  in

  let label (fx, o, a) =
    Printf.sprintf "%s/%s/%s" fx.spec.label (oracle_name o) (attack_name a)
  in
  (* proofs are cached: every pass recovers the same keys *)
  let verdicts = Hashtbl.create 16 in
  let equivalent fx key =
    let k = (fx.spec.label, key) in
    match Hashtbl.find_opt verdicts k with
    | Some v -> v
    | None ->
      let v = equivalent fx key in
      Hashtbl.add verdicts k v;
      v
  in
  let check ((fx, o, _) as item) = function
    | Error e -> Some (Printexc.to_string e)
    | Ok (outcome, _, _) -> (
      let key = Budget.recovered outcome in
      let got = Budget.outcome_to_string outcome in
      match outcome with
      | Budget.Exhausted (Budget.Iterations _) when fx.spec.capped -> None
      | _ when fx.spec.capped -> Some ("expected the iteration cap, got " ^ got)
      | _ -> (
        match (o, key) with
        | Functional, Some k when equivalent fx k -> None
        | Functional, _ -> Some ("no equivalent key: " ^ got)
        | Orap_scan, Some k when equivalent fx k ->
          Some "recovered an equivalent key through the OraP scan oracle"
        | Orap_scan, _ -> None))
    |> Option.map (fun why -> label item ^ ": " ^ why)
  in
  fun mode ->
    let traced = mode = Traced in
    let heap_growth = ref 0.0 in
    let run_item ((fx, o, a) as item) =
      let oracle =
        match o with
        | Functional -> Oracle.functional fx.locked
        | Orap_scan -> Oracle.scan_chip fx.chip
      in
      let h0 = heap_mb () in
      let r, dt, dcpu =
        timed (fun () ->
            try
              Ok
                (Telemetry.span "attacks.call"
                   ~args:[ ("item", Telemetry.String (label item)) ]
                   (fun () -> run_attack ~appsat_seed a fx oracle))
            with e -> Error e)
      in
      let h = heap_mb () in
      heap_growth := Float.max !heap_growth (h -. h0);
      (r, dt, dcpu, h)
    in
    (* the timed region is the items, not the calibration samples between
       them *)
    let (results, samples), events =
      with_trace ~traced (fun () -> Calib.around ~calibrate:(mode = Library) run_item items)
    in
    let item_s = List.map (fun (_, dt, _, _) -> dt) results in
    (* reference checks, outside the timed region *)
    let notes =
      List.filter_map Fun.id (List.map2 (fun it (r, _, _, _) -> check it r) items results)
    in
    let per_item =
      List.concat
        (List.map2
           (fun it (r, _, _, _) ->
             match r with
             | Ok (_, iterations, conflicts) ->
               [ (label it ^ ".iterations", iterations); (label it ^ ".conflicts", conflicts) ]
             | Error _ -> [])
           items results)
    in
    let iterations =
      List.fold_left
        (fun a (r, _, _, _) -> match r with Ok (_, i, _) -> a + i | Error _ -> a)
        0 results
    in
    {
      wall_s = sum item_s;
      cpu_s = sum (List.map (fun (_, _, c, _) -> c) results);
      item_s;
      scale = Calib.scale samples;
      failed = List.length notes;
      counts = ("attacks.iterations", iterations) :: per_item;
      notes;
      events;
      heap_mb = List.fold_left (fun a (_, _, _, h) -> Float.max a h) 0.0 results;
      item_heap_mb = (if traced then !heap_growth else 0.0);
    }

let fixture ?(inputs = 32) ?(outputs = 24) ?(cap = 64) ?(capped = false) label
    ~gen_seed ~gates scheme ~key_size =
  { label; gen_seed; inputs; outputs; gates; scheme; key_size; cap; capped }

(* one large miter proof per attack after 1-7 DIPs *)
let proof_specs ~toy =
  if toy then
    [ fixture "rll-60g-8k" ~inputs:16 ~outputs:8 ~gen_seed:5 ~gates:60 Random_ll ~key_size:8;
      fixture "wll-60g-8k" ~inputs:16 ~outputs:8 ~gen_seed:5 ~gates:60 (Weighted 2) ~key_size:8 ]
  else
    [ fixture "rll-300g-14k" ~gen_seed:5 ~gates:300 Random_ll ~key_size:14;
      fixture "wll-350g-16k" ~gen_seed:5 ~gates:350 (Weighted 2) ~key_size:16 ]

(* hundreds of small incremental solves: SARLock needs 2^k - 1 DIPs, and
   Anti-SAT is stopped by the iteration cap *)
let loop_specs ~toy =
  if toy then
    [ fixture "sarlock-60g-4k" ~inputs:16 ~outputs:8 ~gen_seed:5 ~gates:60 Sarlock
        ~key_size:4 ~cap:64;
      fixture "antisat-60g-8k" ~inputs:16 ~outputs:8 ~gen_seed:5 ~gates:60 Antisat
        ~key_size:8 ~cap:8 ~capped:true ]
  else
    [ fixture "sarlock-200g-7k" ~gen_seed:5 ~gates:200 Sarlock ~key_size:7 ~cap:256;
      fixture "antisat-200g-16k" ~gen_seed:5 ~gates:200 Antisat ~key_size:16 ~cap:128
        ~capped:true ]

let attack_proof =
  {
    name = "attack-proof";
    parallel = false;
    trace_setup = true;
    setup = (fun ~toy -> setup ~attacks:[ Sat; Appsat; Ddip ] (proof_specs ~toy) ~toy);
  }

let attack_dip_loop =
  {
    name = "attack-dip-loop";
    parallel = false;
    trace_setup = true;
    setup = (fun ~toy -> setup ~attacks:[ Sat; Ddip ] (loop_specs ~toy) ~toy);
  }
