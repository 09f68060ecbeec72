(** Oracle interfaces — the attacker-side view of a functional chip.

    Every oracle answers combinational queries: given a full input vector of
    the locked core (external PIs ++ state-FF values), return the full
    output vector (external POs ++ next-state values).  Oracle-based attacks
    (SAT and friends) are written against this interface, so the same attack
    code runs against an idealised functional chip and against an
    OraP-protected chip reached through its scan chains. *)

module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics

type t = {
  query : bool array -> bool array;
  mutable queries : int;  (** number of oracle calls made so far *)
  description : string;
}

(* Per-query latency lands in one shared histogram; the trace gets one
   "oracle.query" span per call (also on failure, so refusals are visible
   in the timeline).  One wall-clock reading on each side of the span
   times the call, traced or not. *)
let query t inputs =
  t.queries <- t.queries + 1;
  Metrics.incr (Metrics.counter "oracle.queries");
  let lat = Metrics.histogram "oracle.query_latency_s" in
  let t0 = Unix.gettimeofday () in
  match Telemetry.span "oracle.query" (fun () -> t.query inputs) with
  | y ->
    Metrics.observe lat (Unix.gettimeofday () -. t0);
    y
  | exception e ->
    Metrics.observe lat (Unix.gettimeofday () -. t0);
    raise e

let num_queries t = t.queries

(* Every oracle validates the query width at its boundary so malformed
   attack code fails with a clear message instead of deep inside
   [Locked.eval]. *)
let check_width ~who ~expected inputs =
  let got = Array.length inputs in
  if got <> expected then
    invalid_arg
      (Printf.sprintf "%s: expected input width %d, got %d" who expected got)

(** Idealised oracle: direct evaluation of the locked circuit under its
    correct key.  This is what an *unprotected* design leaks through scan
    (and what attack papers assume). *)
let functional (locked : Locked.t) : t =
  let width = locked.Locked.num_regular_inputs in
  {
    query =
      (fun inputs ->
        check_width ~who:"Oracle.functional" ~expected:width inputs;
        Locked.eval locked ~key:locked.Locked.correct_key ~inputs);
    queries = 0;
    description = "functional oracle (unprotected scan access)";
  }

(** Oracle reached through an OraP-protected chip's scan interface: scan in
    the state part, apply the external inputs at the pins, capture, scan
    out.  The pulse generators clear the key register before the first
    shift, so the responses are those of the LOCKED circuit — unless a
    Trojan interferes. *)
let scan_chip (chip : Chip.t) : t =
  let d = Chip.design chip in
  let n_ext = Orap.num_ext_inputs d in
  let n_ffs = Orap.num_ffs d in
  let q inputs =
    check_width ~who:"Oracle.scan_chip" ~expected:(n_ext + n_ffs) inputs;
    let ext = Array.sub inputs 0 n_ext in
    let state = Array.sub inputs n_ext n_ffs in
    let ext_outs, captured = Chip.scan_test chip ~state ~ext_inputs:ext in
    Array.append ext_outs captured
  in
  { query = q; queries = 0; description = "scan oracle (OraP chip)" }

(** Oracle built from a raw key guess — used to evaluate what an attack's
    recovered key is actually worth. *)
let with_key (locked : Locked.t) (key : bool array) : t =
  let width = locked.Locked.num_regular_inputs in
  {
    query =
      (fun inputs ->
        check_width ~who:"Oracle.with_key" ~expected:width inputs;
        Locked.eval locked ~key ~inputs);
    queries = 0;
    description = "keyed evaluation";
  }
