(** Domain-based worker pool.

    [map] distributes an array of independent work items over [jobs]
    domains (default [Domain.recommended_domain_count ()]).  Items are
    claimed through a single atomic counter, so scheduling is
    work-conserving; because every item computes from its own inputs only
    (the runner derives per-cell seeds), the results do not depend on which
    domain ran what.

    The calling domain works alongside [jobs - 1] helper domains.  Helpers
    are spawned on first need and kept: between calls they wait for work,
    and later calls reuse them instead of spawning new domains.  They are
    stopped and joined at exit. *)

(** [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [map ~jobs ?on_result f items] applies [f index item] to every item and
    returns the results in item order.  [jobs <= 0] selects
    [default_jobs ()]; a call never uses more domains than items.

    [on_result] runs in the worker domain as soon as an item finishes — the
    hook for journal appends and progress ticks; it must be thread-safe.  An
    exception raised by [f] or [on_result] is captured as [Error] for that
    item without disturbing the others. *)
val map :
  ?jobs:int ->
  ?on_result:(int -> 'b -> unit) ->
  (int -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
