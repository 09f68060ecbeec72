(** Behavioural model of the per-cell pulse generator of Fig. 2: an
    inverter-chain edge detector emitting a 0-pulse (an asynchronous clear
    for the attached key-register cell) on every 0-to-1 transition of
    [scan_enable]. *)

type t

val create : unit -> t

(** Feed the current [scan_enable] level; [true] = the reset pulse fires. *)
val observe : t -> scan_enable:bool -> bool

(** Gate-equivalent cost (the NAND2; inverters are not counted). *)
val gate_cost : int
