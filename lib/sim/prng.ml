(** Deterministic, seedable PRNG (xoshiro256 "starstar" variant), independent
    of [Random] so experiments are reproducible regardless of other library
    usage. *)

(* The state words s0..s3 at byte offsets 0, 8, 16 and 24, read and
   written with the unboxed 64-bit primitives: mutable [int64] fields
   would box every word stored. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64, used to expand the seed *)
let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix st)
  done;
  t

(** 64 fresh pseudorandom bits. *)
let[@inline] next64 t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45);
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
