(** Post-attack evaluation: what a recovered key is actually worth. *)

module Locked = Orap_locking.Locked

type verdict = {
  recovered : bool;  (** attack produced some key *)
  exact : bool;  (** bitwise equal to the designer's key *)
  equivalent : bool;  (** functionally equivalent on the sample *)
  hd_vs_original : float;  (** output corruption of the recovered key, % *)
}

let no_key = { recovered = false; exact = false; equivalent = false; hd_vs_original = 100.0 }

let of_key (locked : Locked.t) (key : bool array option) : verdict =
  match key with
  | None -> no_key
  | Some key ->
    let hd = Locked.hamming_vs_original ~words:32 locked key in
    {
      recovered = true;
      exact = key = locked.Locked.correct_key;
      equivalent = hd = 0.0;
      hd_vs_original = hd;
    }

(** Evaluate a structured attack outcome's recovered key (if any). *)
let of_outcome (locked : Locked.t) (o : bool array Budget.outcome) : verdict =
  of_key locked (Budget.recovered o)

let to_string v =
  if not v.recovered then "no key recovered"
  else if v.equivalent then
    Printf.sprintf "key recovered (%s, HD 0%%)"
      (if v.exact then "exact" else "equivalent")
  else Printf.sprintf "WRONG key (HD %.1f%%)" v.hd_vs_original
