(** Key sequences: the secret the chip owner stores in tamper-proof memory.

    A key sequence is a list of LFSR seeds, each followed by a number of
    free-run cycles (which may vary, per the paper); feeding the whole
    sequence into a reset LFSR leaves the circuit key in the register. *)

module Prng = Orap_sim.Prng

type entry = { seed : bool array; free_run : int }
type t = { entries : entry list }

let entries t = t.entries

(** Feed the sequence into [lfsr] (which is reset first) and return the
    final register state — the circuit key. *)
let apply (lfsr : Lfsr.t) (t : t) : bool array =
  Lfsr.reset lfsr;
  List.iter
    (fun e ->
      Lfsr.step ~injection:e.seed lfsr;
      Lfsr.free_run lfsr e.free_run)
    t.entries;
  Lfsr.state lfsr

(** Generate a random schedule of [num_seeds] seeds with free-run gaps in
    [0, max_free_run]. *)
let random ?(max_free_run = 7) ~seed ~num_seeds (lfsr : Lfsr.t) : t =
  if num_seeds < 1 then invalid_arg "Keyseq.random";
  let rng = Prng.create seed in
  let width = Lfsr.num_reseed_points lfsr in
  let entry _ =
    {
      seed = Prng.bool_array rng width;
      free_run = Prng.int rng (max_free_run + 1);
    }
  in
  { entries = List.init num_seeds entry }

(** Search for a key sequence whose application yields [target_key]. Because
    the LFSR is linear over GF(2), the final state is an affine function of
    the seed bits; we solve for the last seed by Gaussian elimination over
    the symbolic simulation (see {!Symbolic}). *)
let solve_for_key ?(max_free_run = 7) ~seed ~num_seeds (lfsr : Lfsr.t)
    ~(target_key : bool array) : t =
  if Array.length target_key <> Lfsr.size lfsr then
    invalid_arg "Keyseq.solve_for_key";
  let base = random ~max_free_run ~seed ~num_seeds lfsr in
  (* final_state = M * seed_bits (linear): build the system symbolically and
     solve the whole seed-bit vector by Gaussian elimination *)
  let exprs =
    Symbolic.of_schedule lfsr
      ~free_runs:(List.map (fun e -> e.free_run) base.entries)
  in
  let width = Lfsr.num_reseed_points lfsr in
  let total_vars = num_seeds * width in
  let solution =
    match Symbolic.solve exprs ~num_vars:total_vars target_key with
    | Some s -> s
    | None ->
      failwith "Keyseq.solve_for_key: unreachable key (degenerate schedule)"
  in
  let entries =
    List.mapi
      (fun s e ->
        let seed = Array.init width (fun k -> solution.((s * width) + k)) in
        { e with seed })
      base.entries
  in
  { entries }
