(** Cycle-accurate behavioural model of a fabricated OraP-protected chip,
    exposing exactly the attacker/tester interface: primary I/O pins,
    functional clock, [scan_enable] and the scan ports.  Trojans model the
    Section-III scenarios. *)

(** Foundry-inserted deviations, one per Section-III scenario. *)
type trojan =
  | Suppress_cell_resets  (** (a) no pulse generator clears its cell *)
  | Exclude_lfsr_from_scan
      (** (b) key cells bypassed in the chains, reset suppressed at the stem *)
  | Shadow_register  (** (c) a shadow copy of the key drives the key gates *)
  | Xor_tree_key  (** (d) seed registers + XOR trees recompute the key *)
  | Freeze_state_ffs  (** (e) state FFs hold their values while unlocking *)

type t

(** Fabricate a chip, honest unless a [trojan] is given. *)
val create : ?trojan:trojan -> Orap.t -> t

(** {1 Observation} *)

val design : t -> Orap.t
val key_register : t -> bool array
val ff_state : t -> bool array

(** {1 Pins and clocking} *)

(** Drive the [scan_enable] pin; on a rising edge every pulse generator
    fires and clears its LFSR cell unless a Trojan suppresses it. *)
val set_scan_enable : t -> bool -> unit

(** One functional clock cycle (functional mode only): returns the external
    outputs and updates the state flip-flops. *)
val functional_cycle : t -> ext_inputs:bool array -> bool array

(** Run the on-chip unlock controller: pulse [scan_enable] to clear the key
    register, then clock the secret schedule ({!Orap.unlock_cycle} per
    cycle; the FFs follow under the effective key, or hold under
    Trojan (e)). *)
val unlock : t -> unit

(** {1 Scan operations (scan mode only)} *)

(** Enter scan mode and shift [state] (and [key], default all-zero, where
    the chain reaches the key cells) into the chain; stays in scan mode. *)
val scan_load : ?key:bool array -> t -> state:bool array -> unit

(** Capture cycle: the state FFs load their functional inputs; the key
    register holds. *)
val capture : t -> ext_inputs:bool array -> bool array

(** Full test access: {!scan_load}, capture under [ext_inputs], unload.
    Returns (external outputs at capture, captured FF vector). *)
val scan_test :
  ?key:bool array ->
  t ->
  state:bool array ->
  ext_inputs:bool array ->
  bool array * bool array

(** Shift the raw chain out without capturing and leave scan mode
    (scenario (a)'s key theft). *)
val scan_dump : t -> (Orap_dft.Scan.cell * bool) array
