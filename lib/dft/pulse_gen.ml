(** Behavioural model of the per-cell pulse generator of Fig. 2: an
    inverter-chain edge detector whose output is constantly 1 except for a
    short 0-pulse when [scan_enable] makes a 0-to-1 transition.  The pulse
    asynchronously clears the attached key-register flip-flop; behaviourally
    it is treated as wide enough to do so. *)

type t = { mutable prev_scan_enable : bool }

let create () = { prev_scan_enable = false }

(** Feed the current [scan_enable] level; returns [true] when the generator
    emits its reset pulse (a rising edge was seen). *)
let observe t ~scan_enable =
  let fires = scan_enable && not t.prev_scan_enable in
  t.prev_scan_enable <- scan_enable;
  fires

(** Gate-equivalent cost of one pulse generator, counted as the paper does
    (inverters excluded): the NAND2. *)
let gate_cost = 1
