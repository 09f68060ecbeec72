(** Deterministic, seedable PRNG (xoshiro256 "starstar"), independent of
    [Stdlib.Random] so experiments reproduce exactly. *)

type t

val create : int -> t

(** 64 fresh pseudorandom bits. *)
val next64 : t -> int64

val bool : t -> bool

(** Uniform integer in [0, bound); raises on non-positive bounds. *)
val int : t -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool_array : t -> int -> bool array
