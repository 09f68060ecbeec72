(** Zero-dependency tracing: named spans with wall-clock timestamps, event
    sinks, and Chrome [trace_event]-compatible output.

    The design centre is the disabled case: until a sink is installed every
    entry point is a branch on one [ref] and costs a few nanoseconds, so
    hot paths (solver loops, oracle queries, grid cells) stay instrumented
    permanently.  With a sink installed, each span is emitted as one
    Chrome "complete" event ([ph:"X"]) carrying its start timestamp and
    duration; nesting is recovered from containment, exactly as
    [about://tracing] and Perfetto render it.

    Timestamps come from [Unix.gettimeofday] relative to the trace epoch
    and are clamped to be non-decreasing per process (gettimeofday is the
    only wall clock the stdlib offers; the clamp protects traces from NTP
    steps).  All sinks serialise internally and are safe to use from
    multiple [Domain]s, e.g. inside [Runner.pool] workers. *)

(** Argument values attached to events ([args] in the Chrome format). *)
type value = Int of int | Float of float | String of string | Bool of bool

type phase =
  | Complete  (** a span: [ts_us] start + [dur_us] duration (Chrome "X") *)

type event = {
  phase : phase;
  name : string;
  ts_us : float;  (** microseconds since the trace epoch *)
  dur_us : float;
  tid : int;  (** emitting domain id *)
  args : (string * value) list;
}

(** {1 Sinks} *)

type sink

(** Counts events, emits nothing: kept for a per-event cost benchmark,
    which prices the instrumentation itself with it.  Nothing calls it
    yet. *)
val null : unit -> sink

(** In-memory sink; the second component returns the events captured so
    far, in emission order. *)
val memory : unit -> sink * (unit -> event list)

(** One JSON object per line, each a Chrome trace_event object
    ([{"ph":"X","name":...,"ts":...,"dur":...,"pid":1,"tid":...,"args":{...}}]).
    The strict parser in {!Trace} round-trips every line; {!Trace.to_chrome}
    wraps such a file into a directly loadable Chrome trace. *)
val jsonl : string -> sink

(** {1 Global installation} *)

(** Install [sink] as the process-wide event destination.  Installing over
    an existing sink closes the old one.  Install before spawning worker
    domains; the sink itself is domain-safe. *)
val install : sink -> unit

(** Flush and close the current sink and disable tracing. *)
val shutdown : unit -> unit

(** [true] iff a sink is installed.  Instrumentation sites use this to
    skip timestamping entirely when tracing is off. *)
val enabled : unit -> bool

(** [with_sink sink f] installs, runs [f], and shuts down (also on
    exceptions). *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** {1 Emission} *)

(** [span ?args ?exit_args name f] times [f] and emits one [Complete]
    event.  [exit_args] derives additional args from the result (e.g.
    solver-statistics deltas).  When disabled this is exactly [f ()].  If
    [f] raises, the span is emitted with an ["error"] arg and the
    exception re-raised. *)
val span :
  ?args:(string * value) list ->
  ?exit_args:('a -> (string * value) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** {1 Rendering} *)

(** The event as a single-line Chrome trace_event JSON object — the JSONL
    sink's line format. *)
val event_to_json : event -> string

(** The body of a JSON string literal for [s]: quote, backslash and every
    control character escaped, other bytes as they are.  {!Trace}'s parser
    reads it back. *)
val escape : string -> string
