(** Grid cells: stable identity, content hashing and per-cell seed
    derivation.

    A task grid is a list of independent cells (benchmark-profile x scheme x
    attack x seed points).  Each cell gets
    - a caller-supplied stable textual id (the canonical cell spec),
    - a content [key] = FNV-1a hash of (root seed, id), used to index the
      journal, and
    - a derived PRNG [seed] = hash (root_seed, id), so results are
      bit-identical regardless of worker count or scheduling order: no cell
      ever draws from another cell's random stream. *)

(** FNV-1a, 64-bit, over the bytes of a string, as 16 lowercase hex
    digits.  Stable across OCaml versions and architectures (unlike
    [Hashtbl.hash]). *)
val hash_hex : string -> string

(** Journal key of a cell: hash of the root seed and the cell id. *)
val cell_key : root_seed:int -> id:string -> string

(** Per-cell PRNG seed, derived (not sequential) so it is independent of
    scheduling.  Always non-negative. *)
val derive_seed : root_seed:int -> id:string -> int

type 'a cell = {
  index : int;  (** position in the grid; results are returned in this order *)
  id : string;  (** caller-supplied canonical spec *)
  key : string;  (** journal key: [cell_key ~root_seed ~id] *)
  seed : int;  (** derived PRNG seed: [derive_seed ~root_seed ~id] *)
  payload : 'a;
}

(** Build the cell list for a grid.  Ids should be unique; duplicate ids
    yield identical seeds and journal keys (last write wins on resume). *)
val grid : root_seed:int -> id:('a -> string) -> 'a list -> 'a cell list
