(** Fault-injection middleware over {!Oracle.t}.

    The paper's threat model is about oracles that are less than ideal: OraP
    itself makes every scan session answer with locked responses, and real
    chip access is also noisy, rate-limited and slow.  Each wrapper below
    takes an oracle and returns an oracle, so any stack of faults composes
    and every attack in [lib/attacks] runs against it unchanged.

    All randomness is drawn from a seeded {!Orap_sim.Prng}, so a faulty
    oracle replays bit-identically for a given seed. *)

module Prng = Orap_sim.Prng

exception Refused of string

(* A wrapper calls its inner oracle's [query] function, not {!Oracle.query}:
   only the oracle the attacker holds is metered, once per attacker query. *)
let wrap (inner : Oracle.t) ~tag q : Oracle.t =
  { Oracle.query = q; queries = 0; description = tag ^ " over " ^ inner.Oracle.description }

let bit_flip ?(seed = 2020) ~p (inner : Oracle.t) : Oracle.t =
  if p < 0.0 || p > 1.0 then invalid_arg "Faulty_oracle.bit_flip: p not in [0,1]";
  let rng = Prng.create seed in
  let q inputs =
    let y = inner.Oracle.query inputs in
    if p > 0.0 && Array.length y > 0 && Prng.float rng < p then begin
      let y = Array.copy y in
      let j = Prng.int rng (Array.length y) in
      y.(j) <- not y.(j);
      y
    end
    else y
  in
  wrap inner ~tag:(Printf.sprintf "bit-flip(p=%.3f)" p) q

let query_budget ~limit (inner : Oracle.t) : Oracle.t =
  if limit < 0 then invalid_arg "Faulty_oracle.query_budget: negative limit";
  let used = ref 0 in
  let q inputs =
    if !used >= limit then
      raise
        (Refused
           (Printf.sprintf "query budget of %d exhausted (%s)" limit
              inner.Oracle.description));
    incr used;
    inner.Oracle.query inputs
  in
  wrap inner ~tag:(Printf.sprintf "query-budget(%d)" limit) q

let retry ?(votes = 3) (inner : Oracle.t) : Oracle.t =
  if votes < 1 || votes mod 2 = 0 then
    invalid_arg "Faulty_oracle.retry: votes must be positive and odd";
  let q inputs =
    let first = inner.Oracle.query inputs in
    if votes = 1 then first
    else begin
      let ones = Array.make (Array.length first) 0 in
      let tally y =
        Array.iteri (fun i b -> if b then ones.(i) <- ones.(i) + 1) y
      in
      tally first;
      for _ = 2 to votes do
        tally (inner.Oracle.query inputs)
      done;
      Array.map (fun c -> 2 * c > votes) ones
    end
  in
  wrap inner ~tag:(Printf.sprintf "majority-retry(%d)" votes) q
