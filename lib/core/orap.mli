(** The OraP oracle-protection scheme (Sections II and III of the paper):
    construction of protected designs around an already locked circuit.

    See the implementation header for the basic (Fig. 1) / modified (Fig. 3)
    variants and the two-phase realisation of the modified unlock schedule. *)

type kind = Basic | Modified

type config = {
  kind : kind;
  chain_style : Orap_dft.Scan.style;
  num_ffs : int;
  seed : int;
}

(** Interleaved chain, seed 2020.  The polynomial taps every 8 cells.  The
    basic schedule has 4 seed cycles, each followed by 0–5 free-run
    cycles; the modified one mixes responses for 12 cycles, then injects
    for [2·⌈n/mw⌉+4] cycles ([mw] = memory points).  Both finalisations
    are solved by one GF(2) elimination over {!Orap_lfsr.Symbolic.unroll}. *)
val default_config : ?kind:kind -> num_ffs:int -> unit -> config

(** One clock of the unlock schedule: the design's schedule is an optional
    closed-loop phase A (modified only) followed by the solved
    finalisation, whose free-run cycles have [memory = None]. *)
type cycle = {
  memory : bool array option;
      (** bits for the memory points; [None] = a free-run cycle *)
  feedback : bool;  (** the circuit FFs drive the response points *)
}

type t = {
  locked : Orap_locking.Locked.t;
  config : config;
  lfsr : Orap_lfsr.Lfsr.t;
  chain : Orap_dft.Scan.t;
  schedule : cycle list;
  memory_points : int array;
  response_points : int array;
  response_sources : int array;
}

exception Construction_failure of string

(** Build a protected design; the locked circuit's correct key becomes the
    target of the (solved) unlock schedule. *)
val protect : ?config:config -> Orap_locking.Locked.t -> t

val key_size : t -> int
val num_ffs : t -> int
val num_ext_inputs : t -> int
val unlock_cycles : t -> int

(** One unlock clock: XOR the cycle's memory bits (and, on a feedback
    cycle, the FF responses [ffs]) in at the reseeding points, step the
    register, and return the FFs' next state under the new register
    contents — or under [key], a Trojan's stolen copy.  Primary inputs are
    held at zero. *)
val unlock_cycle :
  t ->
  Orap_lfsr.Lfsr.t ->
  ?key:bool array ->
  ffs:bool array ->
  cycle ->
  bool array

(** The key register as the tamper-proof memory drives it: reseeding only
    at the memory points. *)
val memory_lfsr : t -> Orap_lfsr.Lfsr.t

(** Combinational evaluation of the locked core at a given key. *)
val comb_eval : t -> key:bool array -> ext:bool array -> ffs:bool array -> bool array

(** Split a full output vector into (external outputs, next-state values). *)
val split_outputs : t -> bool array -> bool array * bool array

(** {1 Hardware accounting (Table I)} *)

type hardware = { pulse_gen_gates : int; reseed_xors : int; tap_xors : int }

val hardware : t -> hardware

(** The same hardware in AIG AND-node units (XOR = 3 ANDs). *)
val hardware_and_nodes : hardware -> int
