(** AppSAT [11]: approximate SAT attack.  The DIP loop is augmented with
    periodic random-query probes; when the candidate key's error rate on
    random patterns drops below a threshold, the attack settles for an
    approximate key instead of waiting for full miter exhaustion (which
    point-function defences like SARLock push to 2^k iterations). *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle

type result = Attack.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

let run ?(budget = Budget.default) ?max_iterations ?(probe_every = 8)
    ?(probe_size = 32) ?(error_threshold = 0.01) ?(seed = 4242)
    (locked : Locked.t) (oracle : Oracle.t) : result =
  let rng = Orap_sim.Prng.create seed in
  (* every [probe_every] DIPs, probe the current constraint-consistent key
     on random queries *)
  let probe (ctx : Attack.ctx) iters =
    if iters = 0 || iters mod probe_every <> 0 then Attack.Continue
    else
      match Attack.candidate ctx with
      | Error r -> Attack.Stop (Budget.Exhausted r)
      | Ok key -> (
        match Attack.sample ctx rng probe_size with
        | Error r -> Attack.Stop (Budget.Oracle_refused r)
        | Ok pairs ->
          let failing =
            List.filter (fun (x, y) -> Locked.eval locked ~key ~inputs:x <> y) pairs
          in
          let err =
            float_of_int (List.length failing) /. float_of_int probe_size
          in
          if err <= error_threshold then
            Attack.Stop
              (Budget.Approximate
                 ( key,
                   Budget.stats_of ctx.Attack.clock ~iterations:iters
                     ~queries:(Attack.queries ctx) ~estimated_error:err () ))
          else begin
            (* failing probes double as constraints, as in AppSAT *)
            List.iter (fun (x, y) -> Miter.add_io ctx.Attack.miter x y) failing;
            Attack.Continue
          end)
  in
  Attack.run ~name:"appsat" ~budget ?max_iterations ~before_dip:probe
    ~build:(fun () -> Sat_attack.miter locked)
    oracle
