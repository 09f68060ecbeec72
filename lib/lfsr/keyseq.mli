(** Key sequences: the secret stored in tamper-proof memory — LFSR seeds,
    each followed by a number of free-run cycles. *)

type entry = { seed : bool array; free_run : int }
type t = { entries : entry list }

val entries : t -> entry list

(** Reset the LFSR, feed the sequence, return the final state (the key). *)
val apply : Lfsr.t -> t -> bool array

(** Random schedule of [num_seeds] seeds with free-run gaps in
    [0, max_free_run]. *)
val random : ?max_free_run:int -> seed:int -> num_seeds:int -> Lfsr.t -> t

(** Solve (by GF(2) elimination over the symbolic LFSR) for a sequence whose
    application yields [target_key].  Raises [Failure] on degenerate
    schedules whose linear system is rank-deficient. *)
val solve_for_key :
  ?max_free_run:int ->
  seed:int ->
  num_seeds:int ->
  Lfsr.t ->
  target_key:bool array ->
  t
