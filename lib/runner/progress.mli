(** Live grid telemetry: periodic done/total, cells/sec, ETA and a
    per-outcome tally (the [Exact]/[Approximate]/[Exhausted]/
    [Oracle_refused]-style tags the experiments map their outcomes to).

    All entry points are thread-safe; workers call [tick] directly. *)

type t

(** [create ~total ~cached ()] starts the clock for a grid of [total]
    cells of which [cached] were served from the journal: they count as
    done but not towards the throughput estimate.  The runner creates it
    after cache replay, so replay time stays out of the rate and the ETA.
    Status lines go to [stderr], at least a second apart;
    [enabled:false] (the default used under tests) keeps the counters but
    never writes; [now] injects a clock for deterministic tests (default
    [Unix.gettimeofday]). *)
val create :
  ?enabled:bool ->
  ?now:(unit -> float) ->
  total:int ->
  cached:int ->
  unit ->
  t

(** Record one freshly computed cell carrying an outcome tag. *)
val tick : t -> tag:string -> unit

(** Freshly computed cells per second of compute time (0 before the first
    measurable interval). *)
val rate : t -> float

(** Estimated seconds to completion: [Some 0.] when done, [None] while the
    rate is still unmeasurable. *)
val eta_s : t -> float option

(** The current status line, e.g.
    ["[runner] 12/40 cells  3.1 cells/s  ETA 9.0s  (4 cached)  6 exact, 2 timeout"]. *)
val line : t -> string

(** Number of cells recorded so far (cached + computed). *)
val completed : t -> int

(** Emit a final status line (even when under the interval). *)
val finish : t -> unit

(** Each tag's count, in first-seen order: [["exact"; "timeout"; "exact"]]
    gives ["2 exact, 1 timeout"]; [[]] gives [""].  The status line's
    tally. *)
val tally : string list -> string
