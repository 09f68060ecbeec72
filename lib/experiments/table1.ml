(** Table I: Hamming distance, area and delay overhead of OraP + weighted
    logic locking on the eight benchmark profiles.

    Per circuit: a synthetic netlist at the profile's scale is locked with
    weighted logic locking (key size = LFSR size, control-gate width from
    the profile), wrapped in an OraP design, and measured:
    - HD: mean output Hamming distance of random keys vs. the valid key;
    - area/delay: ABC-style [strash -> refactor -> rewrite] of original and
      protected netlists (plus OraP's own pulse-generator and XOR hardware
      in AND-node units), as percentages over the original. *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Abc = Orap_synth.Abc_script
module Aig = Orap_synth.Aig
module Prng = Orap_sim.Prng
module Runner = Orap_runner.Runner

type row = {
  name : string;
  gates : int;
  outputs : int;
  lfsr_size : int;
  ctrl_inputs : int;
  hd_pct : float;
  area_pct : float;
  delay_pct : float;
}

type params = {
  scale : int;  (** divide the profile sizes by this (1 = paper scale) *)
  hd_words : int;  (** 64-pattern words per HD estimate *)
  hd_keys : int;  (** random keys averaged for the HD column *)
  synth_effort : int;
  seed : int;
}

let default_params =
  { scale = 1; hd_words = 320; hd_keys = 4; synth_effort = 1; seed = 2020 }

let quick_params =
  { scale = 16; hd_words = 64; hd_keys = 3; synth_effort = 1; seed = 2020 }

(** A table cell's circuit, as Tables I and II both build it: the profile
    divided by [scale] (unless 1), its synthetic netlist, and that netlist
    under weighted locking with the profile's LFSR size as key size and
    its control-gate width. *)
let circuit ~scale (profile : Benchgen.profile) =
  let profile =
    if scale = 1 then profile else Benchgen.scale ~factor:scale profile
  in
  let nl = Benchgen.of_profile profile in
  let locked =
    Weighted.lock nl ~key_size:profile.Benchgen.lfsr_size
      ~ctrl_inputs:profile.Benchgen.ctrl_inputs
  in
  (profile, nl, locked)

(* [seed] is the cell's derived seed ({!Orap_runner.Task.derive_seed} of
   the grid root seed and this cell's id): every profile draws from its own
   stream, so rows are bit-identical under any worker count *)
let run_profile ~seed (p : params) (profile : Benchgen.profile) : row =
  let profile, nl, locked = circuit ~scale:p.scale profile in
  let design =
    Orap.protect
      ~config:
        {
          (Orap.default_config ~kind:Orap.Basic
             ~num_ffs:(min 32 (N.num_outputs nl / 2)) ())
          with
          Orap.seed = seed;
        }
      locked
  in
  (* HD: valid key vs random keys *)
  let rng = Prng.create (seed + 3) in
  let hd_sum = ref 0.0 in
  for k = 1 to p.hd_keys do
    let key = Prng.bool_array rng (Locked.key_size locked) in
    hd_sum :=
      !hd_sum
      +. Locked.hamming_vs_original ~seed:(seed + k) ~words:p.hd_words
           locked key
  done;
  let hd = !hd_sum /. float_of_int p.hd_keys in
  (* area / delay through the resynthesis pipeline *)
  let mo = Abc.evaluate ~effort:p.synth_effort nl in
  let mp = Abc.evaluate ~effort:p.synth_effort locked.Locked.netlist in
  let { Abc.area_pct; delay_pct } =
    Abc.overhead ~original:mo ~protected_:mp
      ~extra_ands:(Orap.hardware_and_nodes (Orap.hardware design))
  in
  {
    name = profile.Benchgen.name;
    gates = N.gate_count nl;
    outputs = N.num_outputs nl;
    lfsr_size = profile.Benchgen.lfsr_size;
    ctrl_inputs = profile.Benchgen.ctrl_inputs;
    hd_pct = hd;
    area_pct;
    delay_pct;
  }

(* canonical cell spec: params + profile name — the journal key and the
   derived seed both hash this, so changing any knob invalidates the cell *)
let cell_id (p : params) (profile : Benchgen.profile) =
  Printf.sprintf
    "table1|scale=%d|hd_words=%d|hd_keys=%d|synth=%d|seed=%d|profile=%s"
    p.scale p.hd_words p.hd_keys p.synth_effort p.seed profile.Benchgen.name

let row_codec : row Runner.codec =
  Runner.codec
    ~encode:(fun r ->
      [ r.name; string_of_int r.gates; string_of_int r.outputs;
        string_of_int r.lfsr_size; string_of_int r.ctrl_inputs;
        Runner.float_repr r.hd_pct; Runner.float_repr r.area_pct;
        Runner.float_repr r.delay_pct ])
    ~decode:(fun [@warning "-8"]
      [ name; gates; outputs; lfsr_size; ctrl_inputs; hd; area; delay ] ->
      {
        name;
        gates = int_of_string gates;
        outputs = int_of_string outputs;
        lfsr_size = int_of_string lfsr_size;
        ctrl_inputs = int_of_string ctrl_inputs;
        hd_pct = float_of_string hd;
        area_pct = float_of_string area;
        delay_pct = float_of_string delay;
      })

let run ?(params = default_params) ?(options = Runner.default_options)
    ?(profiles = Benchgen.table1_profiles) () : row list =
  let options = { options with Runner.root_seed = params.seed } in
  Runner.map_grid ~options ~codec:row_codec
    ~tag:(fun _ -> "row")
    ~id:(cell_id params)
    ~f:(fun ~seed profile -> run_profile ~seed params profile)
    profiles

let report (rows : row list) : Report.t =
  Report.table ~title:"Table I: HD, area and delay overhead"
    [ Report.col ~align:L "Circuit" (fun r -> r.name);
      Report.col "# Gates" (fun r -> Report.d r.gates);
      Report.col "# Outputs" (fun r -> Report.d r.outputs);
      Report.col "LFSR size" (fun r -> Report.d r.lfsr_size);
      Report.col "Ctrl inputs" (fun r -> Report.d r.ctrl_inputs);
      Report.col "HD (%)" (fun r -> Report.f2 r.hd_pct);
      Report.col "Area ovhd (%)" (fun r -> Report.f2 r.area_pct);
      Report.col "Delay ovhd (%)" (fun r -> Report.f2 r.delay_pct) ]
    rows
