(** Fault-injection middleware over {!Oracle.t}: composable wrappers that
    model the imperfect, protected or rate-limited oracles of the paper's
    threat model.  Each wrapper takes an oracle and returns an oracle, so
    faults stack and every attack runs against them unchanged.

    - an unreliable probe/scan interface is {!bit_flip} noise;
    - rate-limited access to a rented or fielded chip is {!query_budget}.

    The Section-III Trojan scenarios are modelled by {!Chip.create}'s
    [trojan] hooks, not here.

    All randomness comes from a seeded {!Orap_sim.Prng}: a faulty oracle
    replays bit-identically for a given seed.

    A wrapper calls its inner oracle's [query] function directly, so only
    the oracle the attacker holds is metered: one {!Oracle.query} of the
    outermost layer counts one query, one ["oracle.query"] span and one
    latency sample, whatever sits under it. *)

(** Raised by {!query_budget}-wrapped oracles once the budget is spent.
    Attacks converting this into a structured outcome is the point: no
    attack in [lib/attacks] lets it escape. *)
exception Refused of string

(** [bit_flip ~seed ~p inner]: with per-query probability [p] the response
    has one uniformly chosen bit flipped — seeded measurement noise.
    Raises [Invalid_argument] unless [p] is in [0,1]. *)
val bit_flip : ?seed:int -> p:float -> Oracle.t -> Oracle.t

(** [query_budget ~limit inner] refuses (raises {!Refused}) after [limit]
    queries — rate-limited chip access.  Raises [Invalid_argument] when
    [limit] is negative. *)
val query_budget : limit:int -> Oracle.t -> Oracle.t

(** [retry ~votes inner]: every query is answered by the per-bit majority
    of [votes] independent queries to [inner] — the repair combinator
    attacks opt into against {!bit_flip} noise.  [votes] must be positive
    and odd, or [Invalid_argument] is raised;
    each vote is one query to [inner], so under a {!query_budget} every
    vote spends budget, while the retry oracle meters one query. *)
val retry : ?votes:int -> Oracle.t -> Oracle.t
