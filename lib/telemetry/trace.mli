(** Strict reader for the {!Telemetry.jsonl} sink's event stream.

    The parser accepts exactly the line format {!Telemetry.event_to_json}
    emits — one Chrome trace_event object per line — and rejects anything
    else with a reason.  CI uses {!validate_file} to assert that a traced
    smoke run produced a well-formed stream; {!to_chrome} wraps a JSONL
    stream into a JSON array loadable directly in [about://tracing] or
    Perfetto. *)

type error = {
  line_no : int;  (** 1-based *)
  line : string;
  reason : string;
}

val pp_error : Format.formatter -> error -> unit

(** A parsed JSON value.  Numbers keep whether they were written with a
    fraction or an exponent, so [1] and [1.0] stay apart. *)
type json =
  | Jstring of string
  | Jnumber of float * bool  (** value, had a fractional/exponent part *)
  | Jbool of bool
  | Jnull
  | Jobject of (string * json) list

(** Parse one line holding exactly one JSON object, with no whitespace,
    no duplicate keys, and values that are scalars or (one level deep)
    objects of scalars: the fields in file order.  Strings take the
    escapes {!Telemetry.escape} writes ([\u] up to [00ff]) and no raw
    control characters.  The runner's journal reads its lines with this
    too. *)
val parse_json_line : string -> ((string * json) list, string) result

(** Parse one line.  [Error reason] if the line deviates from the emitted
    format in any way (unknown key or phase, missing field, trailing
    bytes, bad escape, ...). *)
val parse_line : string -> (Telemetry.event, string) result

(** [fold_file path f acc] folds [f] over the lines of [path] in order
    (1-based [line_no]) and stops at the first [Error]. *)
val fold_file :
  string ->
  ('a -> line_no:int -> line:string -> ('a, 'e) result) ->
  'a ->
  ('a, 'e) result

(** All events of a JSONL trace, in file order.  Blank lines are not
    tolerated: the sink never writes them. *)
val read_file : string -> (Telemetry.event list, error) result

(** Strictly parse every line; [Ok n] is the number of events. *)
val validate_file : string -> (int, error) result

(** Convert a JSONL trace to a Chrome trace_event JSON array file.
    Validates as it goes; on error the destination is still written but
    truncated at the offending line. *)
val to_chrome : src:string -> dst:string -> (int, error) result

(** The spans of one name in a trace: how many, their summed durations and
    their summed self time, in microseconds. *)
type span_total = { name : string; count : int; total_us : float; self_us : float }

(** Count, total and self time by span name, most self time first (then by
    name).  Spans nest by containment on each domain ([tid]), with 0.01 µs
    of slack for the rounding of [ts + dur]; a span's self time is its
    duration less those of the spans directly inside it. *)
val summary : Telemetry.event list -> span_total list
