(** Typed metrics over a process-wide, thread-safe registry.

    Two instrument kinds:
    - {b counters}: monotonically increasing integers ([Atomic]-backed, so
      workers on different [Domain]s increment without locking);
    - {b histograms}: power-of-two log-scaled buckets, built for latencies
      spanning nanoseconds to minutes in one instrument.

    Instruments are interned by name: [counter "x"] returns the same cell
    everywhere, so instrumentation sites need no shared setup.  The whole
    registry snapshots to JSON for the [--metrics FILE] flag. *)

type counter
type histogram

(** Get or create the named instrument.  A name registered as one kind
    raises [Invalid_argument] when requested as another. *)
val counter : string -> counter

val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** Record one observation (histograms are unit-agnostic; by convention
    latency instruments carry a [_s] suffix and take seconds). *)
val observe : histogram -> float -> unit

type histogram_snapshot = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
      (** (inclusive upper bound, count) for each non-empty bucket,
          ascending *)
}

val histogram_snapshot : histogram -> histogram_snapshot

(** Mean of all observations (0 when empty). *)
val mean : histogram -> float

(** Approximate quantile ([q] in [0,1]) from the log-scaled buckets: the
    upper bound of the bucket containing the q-th observation. *)
val quantile : histogram -> float -> float

(** {1 Registry} *)

(** Remove every instrument (tests and benchmarks isolate themselves with
    this). *)
val reset : unit -> unit

(** The whole registry as a JSON object:
    [{"counters":{...},"histograms":{name:{"count":..,"sum":..,
    "max":..,"mean":..,"p50":..,"p99":..,"buckets":[[le,n],...]},...}}].
    Keys are sorted, so equal registries render byte-identically. *)
val snapshot_json : unit -> string

(** Write {!snapshot_json} (plus a trailing newline) to [path]. *)
val write_json : string -> unit
