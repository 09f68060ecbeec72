(** Double DIP [10]: every distinguishing input must rule out at least two
    wrong keys at once.  The miter carries two independent key *pairs*; a
    2-distinguishing input makes both pairs disagree simultaneously while
    the pairs are kept distinct, which defeats one-key-per-iteration
    defences such as SARLock. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle

type result = Attack.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

(** The four-copy miter. *)
let miter locked =
  let m = Miter.create locked ~copies:4 in
  (* both pairs must disagree on the same input *)
  Miter.outputs_differ m 0 1;
  Miter.outputs_differ m 2 3;
  (* and the pairs must differ somewhere (key 0 <> key 2) *)
  Miter.keys_differ m 0 2;
  m

let run ?(budget = { Budget.default with Budget.max_iterations = 128 })
    ?max_iterations (locked : Locked.t) (oracle : Oracle.t) : result =
  Attack.run ~name:"double_dip" ~budget ?max_iterations
    ~build:(fun () -> miter locked)
    oracle
