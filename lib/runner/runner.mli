(** The experiment-execution engine: declarative task grids executed on a
    Domain worker pool, with per-cell derived seeds (deterministic under any
    worker count and scheduling order), a JSONL checkpoint journal with
    [--resume] semantics, and live progress telemetry.

    {[
      let rows =
        Runner.map_grid
          ~options:{ Runner.default_options with jobs = 4 }
          ~codec:row_codec
          ~tag:row_outcome_tag
          ~id:cell_id
          ~f:(fun ~seed cell -> compute ~seed cell)
          cells
    ]} *)

type options = {
  jobs : int;  (** worker domains; [<= 0] = [Domain.recommended_domain_count ()] *)
  journal : string option;  (** JSONL checkpoint file; [None] = no journal *)
  resume : bool;  (** skip cells already present in the journal *)
  root_seed : int;  (** mixed into every cell key and derived seed *)
  progress : bool;  (** periodic stderr telemetry *)
  progress_interval_s : float;
}

(** jobs = all cores, no journal, no resume, root seed 0, progress off. *)
val default_options : options

(** Result (de)serializer for the journal.  [decode] returns [None] on any
    mismatch — the cell is then recomputed rather than failing the run. *)
type 'b codec = { encode : 'b -> string; decode : string -> 'b option }

(** Tab-split of an encoded row (the inverse of {!codec}'s join). *)
val unfields : string -> string list

(** A codec that stores a row as tab-separated fields.  [decode] may raise
    on any mismatch (wrong field count, malformed number, unknown label),
    so it can take the field list apart with one partial pattern; the
    codec's [decode] then returns [None]. *)
val codec :
  encode:('b -> string list) -> decode:(string list -> 'b) -> 'b codec

(** Exact round-trip float representation (hex float literal). *)
val float_repr : float -> string

(** [map_grid ~id ~f items] executes one [f ~seed payload] per item and
    returns the results in input order — a drop-in parallel [List.map].

    - [id] must render a stable, canonical cell spec: it determines both
      the journal key and the derived seed.
    - [f] receives the cell's derived seed ([Task.derive_seed] of
      [options.root_seed] and the id) and must draw all its randomness from
      it; results are then independent of scheduling.
    - With [options.journal] set, completed cells are appended as they
      finish (requires [codec]; raises [Invalid_argument] otherwise).  With
      [options.resume] also set, cells whose key is already journaled (and
      whose data decodes) are served from the journal without recomputation.
    - [tag] labels each fresh result for the progress tally (e.g. the
      [Exact]/[Approximate]/[Exhausted]/[Oracle_refused] outcome).

    If any cell raises, the first exception (in grid order) is re-raised
    after all other cells have finished and been journaled, so a crashing
    grid still checkpoints its completed work. *)
val map_grid :
  ?options:options ->
  ?codec:'b codec ->
  ?tag:('b -> string) ->
  id:('a -> string) ->
  f:(seed:int -> 'a -> 'b) ->
  'a list ->
  'b list
