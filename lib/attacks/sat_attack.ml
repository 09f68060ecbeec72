(** The SAT attack of Subramanyan et al. [6]: the {!Attack} DIP loop on a
    miter of two locked-circuit copies that must disagree on some output. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle

type result = Attack.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

(** The two-copy miter (AppSAT uses it too). *)
let miter locked =
  let m = Miter.create locked ~copies:2 in
  Miter.outputs_differ m 0 1;
  m

(* Audit a proved key on [validate] fresh random oracle queries: a
   mismatch demotes it to [Approximate] with the failing fraction of
   output bits, a refusal to [Oracle_refused]. *)
let audit ~validate ~seed (locked : Locked.t) oracle key =
  if validate <= 0 then Budget.Exact key
  else
    match
      Attack.sample oracle ~inputs:locked.Locked.num_regular_inputs
        (Orap_sim.Prng.create seed) validate
    with
    | Error msg -> Budget.Oracle_refused msg
    | Ok pairs ->
      let wrong = Attack.mismatches locked key pairs in
      let bits = List.fold_left (fun n (_, y) -> n + Array.length y) 0 pairs in
      if wrong = 0 then Budget.Exact key
      else Budget.Approximate (key, float_of_int wrong /. float_of_int bits)

(** Run the attack against [oracle] under [budget].  [max_iterations]
    overrides the budget's DIP-loop cap.

    [validate] > 0 audits an [Exact] proof with that many fresh random
    oracle queries before claiming it: the miter proof is only sound
    relative to the oracle's answers, so against a noisy or otherwise
    faulty oracle the "proof" can be hollow.  A probe mismatch downgrades
    the claim to [Approximate] carrying the measured error; a refusal
    mid-probe surfaces as [Oracle_refused].  Validation queries are real
    oracle queries and burn query budget. *)
let run ?(budget = Budget.default) ?max_iterations ?(validate = 0)
    (locked : Locked.t) (oracle : Oracle.t) : result =
  Attack.run ~name:"sat_attack" ~budget ?max_iterations
    ~on_proof:(audit ~validate ~seed:11213 locked oracle)
    ~build:(fun () -> miter locked)
    oracle
