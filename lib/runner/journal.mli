(** JSONL checkpoint journal.

    One line per completed cell:
    {v {"key":"<16 hex>","id":"<cell spec>","data":"<encoded result>"} v}

    Appends are mutex-protected and flushed line-at-a-time, so a journal
    written by several domains interleaves whole lines.  [load] skips any
    line that does not parse completely — in particular the half-written
    final line left by a crash mid-append — so a resumed run simply
    recomputes the cells whose lines were lost. *)

type entry = { key : string; id : string; data : string }

(** Parse every valid line of a journal file; a missing file is an empty
    journal.  Returns entries in file order (on duplicate keys the caller
    should let the last one win). *)
val load : string -> entry list

type t

(** Open for append, creating the file (and truncating nothing). *)
val open_append : string -> t

(** Thread-safe, flushed append of one entry line. *)
val append : t -> key:string -> id:string -> data:string -> unit

val close : t -> unit

(** Exposed for tests: escape / parse one journal line. *)
val format_line : key:string -> id:string -> data:string -> string

val parse_line : string -> entry option
