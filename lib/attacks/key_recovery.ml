(** The five oracle-based key-recovery attacks of the paper's Section II-A,
    listed once.  Each talks to the chip only through an {!Orap_core.Oracle}
    and returns the shared {!Attack.result}, so the attack matrix, the
    robustness grid and the CLI read this table instead of adapting each
    attack. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle

type t = {
  name : string;  (** display name in tables *)
  slug : string;  (** CLI name; also part of a robustness cell id *)
  run :
    budget:Budget.t -> ?validate:int -> Locked.t -> Oracle.t -> Attack.result;
      (** [validate] is the SAT attack's post-proof audit; the others
          ignore it *)
}

let all =
  [
    { name = "SAT attack"; slug = "sat";
      run = (fun ~budget ?validate l o -> Sat_attack.run ~budget ?validate l o) };
    { name = "AppSAT"; slug = "appsat";
      run = (fun ~budget ?validate:_ l o -> Appsat.run ~budget l o) };
    { name = "Double DIP"; slug = "ddip";
      run = (fun ~budget ?validate:_ l o -> Double_dip.run ~budget l o) };
    { name = "Hill climbing"; slug = "hill";
      run = (fun ~budget ?validate:_ l o -> Hill_climb.run ~budget l o) };
    { name = "Key sensitization"; slug = "sens";
      run = (fun ~budget ?validate:_ l o -> Key_sensitization.run ~budget l o) };
  ]

(** ["sat|appsat|ddip|hill|sens"], for help texts. *)
let slugs = String.concat "|" (List.map (fun a -> a.slug) all)
