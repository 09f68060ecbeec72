(** Deterministic, seedable PRNG (xoshiro256 "starstar" variant), independent
    of [Random] so experiments are reproducible regardless of other library
    usage. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64, used to expand the seed *)
let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix st in
  let s1 = splitmix st in
  let s2 = splitmix st in
  let s3 = splitmix st in
  { s0; s1; s2; s3 }

(** 64 fresh pseudorandom bits. *)
let next64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let bool t = Int64.logand (next64 t) 1L <> 0L

(** Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next64 t) mask) in
  v mod bound

(** Uniform float in [0, 1). *)
let float t =
  let v = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float v /. 9007199254740992.0

let bool_array t n = Array.init n (fun _ -> bool t)
