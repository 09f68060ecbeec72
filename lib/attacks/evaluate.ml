(** Post-attack evaluation: what a recovered key is actually worth. *)

module Locked = Orap_locking.Locked

type verdict = {
  recovered : bool;  (** attack produced some key *)
  exact : bool;  (** bitwise equal to the designer's key *)
  equivalent : bool;  (** proved to unlock the designer's function *)
  hd_vs_original : float;  (** output corruption of the recovered key, % *)
}

let no_key = { recovered = false; exact = false; equivalent = false; hd_vs_original = 100.0 }

(* A sampled HD above 0 already witnesses a wrong key and a bitwise-exact
   key needs no proof, so only a key that differs from the secret yet reads
   HD 0 on the sample reaches the miter. *)
let of_key (locked : Locked.t) (key : bool array option) : verdict =
  match key with
  | None -> no_key
  | Some key ->
    let hd = Locked.hamming_vs_original ~words:32 locked key in
    let correct = locked.Locked.correct_key in
    let exact = key = correct in
    {
      recovered = true;
      exact;
      equivalent =
        exact || (hd = 0.0 && Miter.equivalent_keys locked key correct);
      hd_vs_original = hd;
    }

(** Evaluate a structured attack outcome's recovered key (if any). *)
let of_outcome (locked : Locked.t) (o : bool array Budget.outcome) : verdict =
  of_key locked (Budget.recovered o)

(** An [Exact] outcome whose key is not equivalent: the miter proof held
    only against the oracle's answers, so the oracle lied (OraP's scan
    oracle answers for the cleared key). *)
let false_proof (o : _ Budget.outcome) v =
  match o with Budget.Exact _ -> not v.equivalent | _ -> false

let to_string v =
  if not v.recovered then "no key recovered"
  else if v.equivalent then
    Printf.sprintf "key recovered (%s, HD 0%%)"
      (if v.exact then "exact" else "equivalent")
  else Printf.sprintf "WRONG key (HD %.1f%%)" v.hd_vs_original
