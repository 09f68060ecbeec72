(** Cycle-accurate behavioural model of a fabricated OraP-protected chip.

    The model exposes exactly the interface an attacker (or tester) has:
    primary input pins, primary output pins, clock (functional cycles),
    [scan_enable] and the scan-chain ports.  Trojan hooks model the
    Section-III attack scenarios: a fabricated chip may deviate from the
    design in the specific, payload-costed ways the paper analyses. *)

module Lfsr = Orap_lfsr.Lfsr
module Scan = Orap_dft.Scan
module Pulse_gen = Orap_dft.Pulse_gen

(** Foundry-inserted deviations, one per Section-III scenario. *)
type trojan =
  | Suppress_cell_resets
      (** (a): every pulse generator's NAND2 swapped for a NAND3 that never
          clears its cell *)
  | Exclude_lfsr_from_scan
      (** (b): key cells bypassed in the chains and their reset suppressed
          at the scan-enable stem *)
  | Shadow_register
      (** (c): a shadow copy of the key drives the key gates whenever the
          LFSR no longer holds it *)
  | Xor_tree_key  (** (d): seed registers + XOR trees recompute the key *)
  | Freeze_state_ffs  (** (e): state FFs hold their values while unlocking *)

type t = {
  design : Orap.t;
  trojan : trojan option;
  chain : Scan.t;  (** the chain as fabricated *)
  lfsr : Lfsr.t;  (** runtime key register *)
  pulse_gens : Pulse_gen.t array;
  mutable ffs : bool array;
  mutable scan_enable : bool;
  mutable shadow : bool array option;  (** scenario (c)/(d) stolen key *)
}

let create ?trojan (design : Orap.t) : t =
  let n = Orap.key_size design in
  {
    design;
    trojan;
    chain =
      (match trojan with
      | Some Exclude_lfsr_from_scan -> Scan.without_keys design.Orap.chain
      | Some _ | None -> design.Orap.chain);
    lfsr =
      Lfsr.create
        ~taps:(Lfsr.taps_of design.Orap.lfsr)
        ~reseed_points:(Lfsr.reseed_points_of design.Orap.lfsr)
        ~size:n ();
    pulse_gens = Array.init n (fun _ -> Pulse_gen.create ());
    ffs = Array.make (Orap.num_ffs design) false;
    scan_enable = false;
    shadow = None;
  }

let design t = t.design
let key_register t = Lfsr.state t.lfsr
let ff_state t = Array.copy t.ffs

(** The key value the combinational logic actually sees: only Trojans
    (c)/(d) ever hold a stolen copy. *)
let effective_key t =
  match t.shadow with Some stolen -> stolen | None -> Lfsr.state t.lfsr

(** Drive the [scan_enable] pin.  On a rising edge every pulse generator
    fires and clears its LFSR cell — unless a Trojan suppresses it. *)
let set_scan_enable t v =
  t.scan_enable <- v;
  let clears =
    match t.trojan with
    | Some (Suppress_cell_resets | Exclude_lfsr_from_scan) -> false
    | Some (Shadow_register | Xor_tree_key | Freeze_state_ffs) | None -> true
  in
  Array.iteri
    (fun i gen ->
      if Pulse_gen.observe gen ~scan_enable:v && clears then
        Lfsr.set_cell t.lfsr i false)
    t.pulse_gens

(* combinational evaluation at the pins *)
let comb_outputs t ~(ext_inputs : bool array) : bool array =
  Orap.comb_eval t.design ~key:(effective_key t) ~ext:ext_inputs ~ffs:t.ffs

(* clock the state FFs under [ext_inputs]; returns the external outputs *)
let clock_ffs t ~ext_inputs =
  let ext_outs, next_ffs =
    Orap.split_outputs t.design (comb_outputs t ~ext_inputs)
  in
  t.ffs <- next_ffs;
  ext_outs

(** One functional clock cycle: returns the external outputs and updates the
    state flip-flops.  Must be in functional mode. *)
let functional_cycle t ~(ext_inputs : bool array) : bool array =
  if t.scan_enable then invalid_arg "Chip.functional_cycle: scan mode";
  clock_ffs t ~ext_inputs

(** Run the whole unlock sequence, as the on-chip controller does at the
    beginning of normal operation: pulse [scan_enable] to clear the key
    register, then clock the schedule from the tamper-proof memory. *)
let unlock t =
  set_scan_enable t true;
  set_scan_enable t false;
  List.iter
    (fun cycle ->
      let next =
        Orap.unlock_cycle t.design t.lfsr ?key:t.shadow ~ffs:t.ffs cycle
      in
      if t.trojan <> Some Freeze_state_ffs then t.ffs <- next)
    t.design.Orap.schedule;
  (* Trojans (c)/(d) steal the key the moment it is formed *)
  match t.trojan with
  | Some (Shadow_register | Xor_tree_key) ->
    t.shadow <- Some (Lfsr.state t.lfsr)
  | Some (Suppress_cell_resets | Exclude_lfsr_from_scan | Freeze_state_ffs)
  | None -> ()

(* --- scan operations --- *)

let read_cell t = function
  | Scan.Key i -> Lfsr.cell t.lfsr i
  | Scan.State j -> t.ffs.(j)

let write_cell t cell v =
  match cell with
  | Scan.Key i -> Lfsr.set_cell t.lfsr i v
  | Scan.State j -> t.ffs.(j) <- v

(** Enter scan mode and shift a full image in: [state] into the state FFs
    and [key] (default all-zero) into the key cells the chain reaches.
    A full-length shift leaves every chain cell holding its own bit, so
    each cell is written directly. *)
let scan_load ?key t ~(state : bool array) =
  set_scan_enable t true;
  Array.iter
    (fun cell ->
      write_cell t cell
        (match cell with
        | Scan.Key i -> (match key with Some k -> k.(i) | None -> false)
        | Scan.State j -> state.(j)))
    (Scan.order t.chain)

(** Capture cycle in scan mode: the state FFs load their functional inputs
    (computed under the currently effective key); the key register holds. *)
let capture t ~(ext_inputs : bool array) : bool array =
  if not t.scan_enable then invalid_arg "Chip.capture: not in scan mode";
  clock_ffs t ~ext_inputs

(** Scan the raw chain out (no capture), shifting zeros in, and leave scan
    mode: what scenario (a) uses to steal the key register contents.  A
    full-length shift reads every chain cell and leaves it zero. *)
let scan_dump t : (Scan.cell * bool) array =
  set_scan_enable t true;
  let image =
    Array.map (fun cell -> (cell, read_cell t cell)) (Scan.order t.chain)
  in
  Array.iter (fun (cell, _) -> write_cell t cell false) image;
  set_scan_enable t false;
  image

(** Full scan-based test access: load a state (and optionally the key
    register — its cells are in the chains, which is what gives the
    tester full controllability), capture under [ext_inputs], unload the
    captured state.  Returns (external outputs at capture, captured FF
    vector). *)
let scan_test ?key t ~(state : bool array) ~(ext_inputs : bool array) :
    bool array * bool array =
  scan_load ?key t ~state;
  let ext_outs = capture t ~ext_inputs in
  let captured = Array.make (Array.length state) false in
  Array.iter
    (function Scan.State j, b -> captured.(j) <- b | Scan.Key _, _ -> ())
    (scan_dump t);
  (ext_outs, captured)
