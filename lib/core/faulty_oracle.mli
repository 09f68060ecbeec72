(** Fault-injection middleware over {!Oracle.t}: composable wrappers that
    model the imperfect, protected or rate-limited oracles of the paper's
    threat model.  Each wrapper takes an oracle and returns an oracle, so
    faults stack and every attack runs against them unchanged.

    Mapping to the Section-III Trojan scenarios:
    - scenarios (c)/(e) — a Trojan that only works some of the time — are
      {!intermittent}: a fraction of queries answer from the locked circuit;
    - a Trojan with broken payload wiring is {!stuck_at} scan cells;
    - an unreliable probe/scan interface is {!bit_flip} noise;
    - rate-limited access to a rented or fielded chip is {!query_budget}.

    All randomness comes from a seeded {!Orap_sim.Prng}: a faulty oracle
    replays bit-identically for a given seed. *)

(** Raised by {!query_budget}-wrapped oracles once the budget is spent.
    Attacks converting this into a structured outcome is the point: no
    attack in [lib/attacks] lets it escape. *)
exception Refused of string

(** [bit_flip ~seed ~p inner]: with per-query probability [p] the response
    has one uniformly chosen bit flipped — seeded measurement noise.
    Raises [Invalid_argument] unless [p] is in [0,1]. *)
val bit_flip : ?seed:int -> p:float -> Oracle.t -> Oracle.t

(** [stuck_at ~cells inner] forces response position [i] to value [v] for
    every [(i, v)] in [cells] — a stuck-at scan cell on the unload path. *)
val stuck_at : cells:(int * bool) list -> Oracle.t -> Oracle.t

(** [intermittent ~seed ~rate ~locked inner] answers a [rate] fraction of
    queries from the [locked] oracle instead of [inner] — the intermittent
    lockdown of Trojan scenarios (c)/(e). *)
val intermittent : ?seed:int -> rate:float -> locked:Oracle.t -> Oracle.t -> Oracle.t

(** [query_budget ~limit inner] refuses (raises {!Refused}) after [limit]
    queries — rate-limited chip access. *)
val query_budget : limit:int -> Oracle.t -> Oracle.t

(** [retry ~votes inner]: every query is answered by the per-bit majority
    of [votes] independent queries to [inner] — the repair combinator
    attacks opt into against {!bit_flip} noise.  [votes] must be odd;
    each vote consumes underlying queries (and budget). *)
val retry : ?votes:int -> Oracle.t -> Oracle.t
