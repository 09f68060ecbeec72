(** The key-register LFSR of the OraP scheme (Fig. 1): a Galois-style shift
    register whose feedback is XORed into the polynomial-tap cells and whose
    reseeding points accept external XOR injections (tamper-proof-memory
    seeds or, in the modified scheme, circuit responses). *)

type t

(** Characteristic-polynomial taps with one tap every [stride] cells (the
    paper uses a new tap after every eight cells). *)
val default_taps : size:int -> stride:int -> bool array

(** All cells as reseeding points — Fig. 1's most general case. *)
val all_reseed_points : int -> int array

(** [create ?taps ?reseed_points ~size ()] builds an LFSR of [size] cells,
    defaulting to stride-8 taps and all-cell reseeding.  Initial state is
    all-zero. *)
val create : ?taps:bool array -> ?reseed_points:int array -> size:int -> unit -> t

val size : t -> int
val state : t -> bool array
val set_state : t -> bool array -> unit

(** One cell, read or written in place (scan access, pulse-generator
    clears). *)
val cell : t -> int -> bool
val set_cell : t -> int -> bool -> unit

val num_reseed_points : t -> int
val taps_of : t -> bool array
val reseed_points_of : t -> int array

(** One clock edge; [injection] carries one bit per reseeding point (omitted
    = free-run cycle). *)
val step : ?injection:bool array -> t -> unit

val free_run : t -> int -> unit
