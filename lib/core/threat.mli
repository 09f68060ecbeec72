(** Section III threat models: the five foundry-Trojan scenarios against
    OraP, each with its functional deviation and its payload cost in
    NAND2-equivalents (the Trojan trigger is excluded, as in the paper). *)

type scenario = Chip.trojan =
  | Suppress_cell_resets  (** (a) NAND3 swap in every pulse generator *)
  | Exclude_lfsr_from_scan  (** (b) stem suppression + bypass MUXes *)
  | Shadow_register  (** (c) shadow copy of the key register *)
  | Xor_tree_key  (** (d) seed registers + XOR trees *)
  | Freeze_state_ffs  (** (e) hold the FFs through unlocking *)

val all_scenarios : scenario list
val scenario_label : scenario -> string

(** Payload of a scenario against a given design, in NAND2-equivalents.
    Scenario (d)'s trees are sized by symbolic LFSR simulation of the
    design's actual schedule. *)
val payload : Orap.t -> scenario -> float

type outcome = {
  scenario : scenario;
  oracle_obtained : bool;
  payload_nand2 : float;
  detectable : bool;
}

(** Side-channel Trojan-detection threshold (NAND2-equivalents). *)
val default_detection_threshold : float

(** Execute a scenario end to end against a freshly fabricated chip:
    fabricate with the Trojan, activate (buy from the open market), attack
    through the scan interface, and report. *)
val run : Orap.t -> scenario -> outcome

(** A scenario is defeated when it fails to obtain the oracle or its
    payload is detectable. *)
val defeated : outcome -> bool
