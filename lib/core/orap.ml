(** The OraP oracle-protection scheme (Sections II and III of the paper).

    A protected design bundles: a combinational circuit locked with a
    high-corruptibility technique (weighted logic locking by default), a
    key register configured as an LFSR and wired into the scan chains, one
    pulse generator per LFSR cell clearing it when [scan_enable] rises, and
    the secret unlock schedule stored in tamper-proof memory.

    Two variants are built:
    - {b Basic} (Fig. 1): every reseeding point is driven from the
      tamper-proof memory; the circuit key is the LFSR state after the
      whole key sequence (seeds separated by free-run cycles, solved at
      design time like phase B below) has been fed.
    - {b Modified} (Fig. 3): the odd reseeding points are driven by chosen
      circuit flip-flops, so the (wrong) responses the locked circuit
      produces *during* unlocking become necessary inputs of the key
      computation — which is what defeats the FF-freezing Trojan of
      scenario (e).  Unlocking runs in two phases: a mixing phase A with
      response feedback active, then a short finalisation phase B in which
      the controller gates the response points off and the remaining
      memory-driven injections place the exact key (solved at design time
      by GF(2) elimination over the symbolic LFSR).  Phase B is a
      constructive realisation of the paper's schedule (see DESIGN.md,
      "Known divergences"). *)

module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Lfsr = Orap_lfsr.Lfsr
module Symbolic = Orap_lfsr.Symbolic
module Scan = Orap_dft.Scan
module Prng = Orap_sim.Prng

type kind = Basic | Modified

type config = {
  kind : kind;
  chain_style : Scan.style;
  num_ffs : int;  (** state flip-flops of the sequential wrapper *)
  seed : int;
}

let default_config ?(kind = Basic) ~num_ffs () =
  { kind; chain_style = Scan.Interleaved; num_ffs; seed = 2020 }

(* The polynomial places a new tap every [taps_stride] cells; the basic key
   sequence has [num_seeds] seeds, each followed by up to [max_free_run]
   free-run cycles; the modified scheme mixes responses for
   [phase_a_cycles] cycles. *)
let taps_stride = 8
let num_seeds = 4
let max_free_run = 5
let phase_a_cycles = 12

(** One clock of the unlock schedule. *)
type cycle = {
  memory : bool array option;
      (** bits for the memory points; [None] = a free-run cycle *)
  feedback : bool;  (** the circuit FFs drive the response points *)
}

type t = {
  locked : Locked.t;
  config : config;
  lfsr : Lfsr.t;  (** structural template (taps, reseed points) *)
  chain : Scan.t;
  schedule : cycle list;
  memory_points : int array;  (** reseed points fed from tamper-proof memory *)
  response_points : int array;  (** reseed points fed by circuit FFs (modified) *)
  response_sources : int array;  (** FF index feeding each response point *)
}

let key_size t = Locked.key_size t.locked
let num_ffs t = t.config.num_ffs

(** A locked circuit with [num_ffs] state flip-flops exposes [inputs -
    num_ffs] external PIs (the FF outputs are the trailing pseudo-inputs). *)
let num_ext_inputs t = t.locked.Locked.num_regular_inputs - t.config.num_ffs

(* full combinational evaluation: ext inputs ++ ff values ++ key *)
let comb_eval t ~key ~ext ~ffs =
  Locked.eval t.locked ~key ~inputs:(Array.append ext ffs)

let split_outputs t (outs : bool array) =
  let no = Array.length outs in
  let nff = t.config.num_ffs in
  (Array.sub outs 0 (no - nff), Array.sub outs (no - nff) nff)

(** One unlock clock: XOR the cycle's memory bits (and, on a feedback cycle,
    the FF responses) in at the reseeding points, step [lfsr], and return
    the FFs' next state under the new register contents — or under [key],
    a Trojan's stolen copy.  The controller holds the primary inputs at
    zero. *)
let unlock_cycle t lfsr ?key ~(ffs : bool array) cycle =
  let inj = Array.make (Lfsr.num_reseed_points lfsr) false in
  Option.iter
    (fun bits -> Array.iteri (fun k p -> inj.(p) <- bits.(k)) t.memory_points)
    cycle.memory;
  if cycle.feedback then
    Array.iteri
      (fun k p -> inj.(p) <- ffs.(t.response_sources.(k)))
      t.response_points;
  Lfsr.step ~injection:inj lfsr;
  let key = match key with Some k -> k | None -> Lfsr.state lfsr in
  let ext = Array.make (num_ext_inputs t) false in
  snd (split_outputs t (comb_eval t ~key ~ext ~ffs))

(** The key register as the tamper-proof memory drives it: reseeding only
    at the memory points. *)
let memory_lfsr t =
  Lfsr.create ~taps:(Lfsr.taps_of t.lfsr) ~reseed_points:t.memory_points
    ~size:(Lfsr.size t.lfsr) ()

(* Injection positions are indices into the reseed-point array; memory and
   response points partition it even/odd (interleaved, per the paper). *)
let split_points lfsr kind =
  let pts = Lfsr.reseed_points_of lfsr in
  match kind with
  | Basic -> (Array.copy pts, [||])
  | Modified ->
    let mem = ref [] and resp = ref [] in
    Array.iteri
      (fun k p -> if k land 1 = 0 then mem := p :: !mem else resp := p :: !resp)
      pts;
    (Array.of_list (List.rev !mem), Array.of_list (List.rev !resp))

exception Construction_failure of string

(** Build a protected design around an already locked circuit.  The locked
    circuit's correct key becomes the target of the unlock schedule. *)
let protect ?(config : config option) (locked : Locked.t) : t =
  let n = Locked.key_size locked in
  let cfg =
    match config with
    | Some c -> c
    | None ->
      default_config
        ~num_ffs:(min (locked.Locked.num_regular_inputs / 2)
                    (N.num_outputs locked.Locked.netlist / 2))
        ()
  in
  if cfg.num_ffs > locked.Locked.num_regular_inputs then
    raise (Construction_failure "more FFs than circuit inputs");
  if cfg.num_ffs > N.num_outputs locked.Locked.netlist then
    raise (Construction_failure "more FFs than circuit outputs");
  if cfg.kind = Modified && cfg.num_ffs < 1 then
    raise (Construction_failure "the modified scheme needs a state FF");
  let lfsr =
    Lfsr.create
      ~taps:(Lfsr.default_taps ~size:n ~stride:taps_stride)
      ~reseed_points:(Lfsr.all_reseed_points n)
      ~size:n ()
  in
  let chain =
    Scan.build ~style:cfg.chain_style ~num_key:n ~num_state:cfg.num_ffs ()
  in
  let memory_points, response_points = split_points lfsr cfg.kind in
  let rng = Prng.create cfg.seed in
  let response_sources =
    Array.init (Array.length response_points) (fun _ ->
        Prng.int rng (max 1 cfg.num_ffs))
  in
  let partial =
    {
      locked;
      config = cfg;
      lfsr;
      chain;
      schedule = [];
      memory_points;
      response_points;
      response_sources;
    }
  in
  let mw = Array.length memory_points in
  (* a scheme is a closed-loop phase A plus an inject pattern for the
     finalisation: [true] injects memory bits, [false] free-runs *)
  let phase_a, pattern =
    match cfg.kind with
    | Basic ->
      (* each seed draws its free-run length, then [mw] bits that the solve
         overwrites: the unused draw keeps the PRNG stream, and so every
         recorded schedule, unchanged *)
      ( [],
        List.concat
          (List.init num_seeds (fun _ ->
               let free_run = Prng.int rng (max_free_run + 1) in
               ignore (Prng.bool_array rng mw);
               true :: List.init free_run (fun _ -> false))) )
    | Modified ->
      ( List.init phase_a_cycles (fun _ ->
            { memory = Some (Prng.bool_array rng mw); feedback = true }),
        List.init ((2 * ((n + mw - 1) / mw)) + 4) (fun _ -> true) )
  in
  let sim_lfsr = Lfsr.create ~taps:(Lfsr.taps_of lfsr) ~size:n () in
  ignore
    (List.fold_left
       (fun ffs c -> unlock_cycle partial sim_lfsr ~ffs c)
       (Array.make cfg.num_ffs false) phase_a);
  (* the final register is its free-running contents after phase A plus a
     linear function of the pattern's memory injections *)
  let exprs, num_vars = Symbolic.unroll (memory_lfsr partial) pattern in
  Lfsr.free_run sim_lfsr (List.length pattern);
  let free = Lfsr.state sim_lfsr in
  let rhs = Array.mapi (fun i k -> k <> free.(i)) locked.Locked.correct_key in
  let sol =
    match Symbolic.solve exprs ~num_vars rhs with
    | Some sol -> sol
    | None ->
      raise (Construction_failure "unlock schedule: system is rank-deficient")
  in
  let _, finalisation =
    List.fold_left_map
      (fun v inject ->
        if inject then
          ( v + 1,
            {
              memory = Some (Array.init mw (fun k -> sol.((v * mw) + k)));
              feedback = false;
            } )
        else (v, { memory = None; feedback = false }))
      0 pattern
  in
  { partial with schedule = phase_a @ finalisation }

(** Number of unlock clock cycles. *)
let unlock_cycles t = List.length t.schedule

(** OraP's own hardware, in the paper's gate units (inverters free):
    one pulse-generator NAND per LFSR cell, one XOR per reseeding point and
    one XOR per polynomial tap.  The LFSR flip-flops are not counted — a key
    register is common to all locking schemes (Section IV). *)
type hardware = { pulse_gen_gates : int; reseed_xors : int; tap_xors : int }

let hardware t =
  let n = key_size t in
  {
    pulse_gen_gates = n * Orap_dft.Pulse_gen.gate_cost;
    reseed_xors = Lfsr.num_reseed_points t.lfsr;
    tap_xors =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
        (Lfsr.taps_of t.lfsr);
  }

(** The same hardware expressed in AIG AND-node units (XOR = 3 ANDs), for
    combining with the synthesis metrics of Table I. *)
let hardware_and_nodes h = h.pulse_gen_gates + (3 * (h.reseed_xors + h.tap_xors))
