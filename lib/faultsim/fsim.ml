(** Parallel-pattern single-fault propagation (HOPE-style): 64 patterns per
    word, event-driven faulty-value propagation restricted to the affected
    region, fault dropping on first detection.

    Good and faulty words live in per-engine [Bytes] (8 bytes per node), so
    neither simulation nor propagation allocates.  Node ids are
    topological, so pending events are drained in ascending id order from
    a bit per node ({!Pending}).  Faulty words are valid only on the nodes
    listed in [touched]; every propagation clears them again before it
    returns. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  nl : N.t;
  fanouts : int array array;
  is_output : bool array;
  inputs : int array;
  input_words : int64 array;  (* scratch: one word per input *)
  good : Bytes.t;  (* good word per node *)
  faulty : Bytes.t;  (* faulty word, valid where [dirty] is set *)
  dirty : Bytes.t;
  touched : int array;  (* the dirty nodes, [n_touched] of them *)
  mutable n_touched : int;
  pending : Pending.t;
}

let create (nl : N.t) : t =
  let n = N.num_nodes nl in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (N.outputs nl);
  {
    nl;
    fanouts = N.fanouts nl;
    is_output;
    inputs = N.inputs nl;
    input_words = Array.make (N.num_inputs nl) 0L;
    good = Bytes.make (8 * n) '\000';
    faulty = Bytes.make (8 * n) '\000';
    dirty = Bytes.make n '\000';
    touched = Array.make n 0;
    n_touched = 0;
    pending = Pending.create n;
  }

let[@inline] good t n = get64 t.good (n lsl 3)

let[@inline] value t n =
  if Bytes.unsafe_get t.dirty n = '\000' then get64 t.good (n lsl 3)
  else get64 t.faulty (n lsl 3)

(* fanin [pos] of [fan]; the fanin at [fpos] reads [fw] instead *)
let[@inline] operand t fan fpos fw pos = if pos = fpos then fw else value t fan.(pos)

(* evaluate gate [n] over the current values (the good ones outside the
   dirty region) into [dst]; [fpos]/[fw] force one fanin, [fpos] = -1 for
   none.  Writing into [dst] rather than returning keeps the word unboxed *)
let eval_into t dst n fpos fw =
  let fan = N.fanins t.nl n in
  let w =
    match N.kind t.nl n with
    | Gate.Input -> good t n
    | Gate.Const0 -> 0L
    | Gate.Const1 -> -1L
    | Gate.Buf -> operand t fan fpos fw 0
    | Gate.Not -> Int64.lognot (operand t fan fpos fw 0)
    | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor) as k ->
      let acc = ref (match k with Gate.And | Gate.Nand -> -1L | _ -> 0L) in
      for pos = 0 to Array.length fan - 1 do
        let o = operand t fan fpos fw pos in
        acc :=
          match k with
          | Gate.And | Gate.Nand -> Int64.logand !acc o
          | Gate.Or | Gate.Nor -> Int64.logor !acc o
          | _ -> Int64.logxor !acc o
      done;
      (match k with Gate.Nand | Gate.Nor | Gate.Xnor -> Int64.lognot !acc | _ -> !acc)
    | Gate.Mux ->
      let sel = operand t fan fpos fw 0 in
      Int64.logor
        (Int64.logand (Int64.lognot sel) (operand t fan fpos fw 1))
        (Int64.logand sel (operand t fan fpos fw 2))
  in
  set64 dst (n lsl 3) w

(* good values of every node, from [input_words] by input position *)
let simulate_good t (input_words : int64 array) =
  Array.iteri (fun pos id -> set64 t.good (id lsl 3) input_words.(pos)) t.inputs;
  for n = 0 to N.num_nodes t.nl - 1 do
    if N.kind t.nl n <> Gate.Input then eval_into t t.good n (-1) 0L
  done

let schedule_fanouts t n =
  let fo = t.fanouts.(n) in
  for i = 0 to Array.length fo - 1 do
    Pending.push t.pending fo.(i)
  done

(* the faulty word of [n] was just written: keep it when it differs from
   the good word and schedule the readers *)
let commit t n =
  if get64 t.faulty (n lsl 3) <> good t n then begin
    Bytes.unsafe_set t.dirty n '\001';
    t.touched.(t.n_touched) <- n;
    t.n_touched <- t.n_touched + 1;
    schedule_fanouts t n
  end

(* drain the pending events in id (= topological) order; the fault site is
   never re-evaluated, since every event lies downstream of it *)
let rec propagate t =
  let i = Pending.pop t.pending in
  if i >= 0 then begin
    eval_into t t.faulty i (-1) 0L;
    commit t i;
    propagate t
  end

(* set the faulty word of [n] to [w] ([pos] = -1, a stem fault) or to its
   value with fanin [pos] stuck at [w] (a branch fault: only [n] reads the
   branch), and propagate it *)
let inject t n pos w =
  if pos < 0 then set64 t.faulty (n lsl 3) w else eval_into t t.faulty n pos w;
  commit t n;
  propagate t

let inject_fault t (fault : Fault.t) =
  let w = if fault.Fault.stuck then -1L else 0L in
  match fault.Fault.site with
  | Fault.Output n -> inject t n (-1) w
  | Fault.Input (n, pos) -> inject t n pos w

(* end a propagation: clear the dirty region *)
let clear t =
  for i = 0 to t.n_touched - 1 do
    Bytes.unsafe_set t.dirty t.touched.(i) '\000'
  done;
  t.n_touched <- 0

(* the output difference word of the [i]-th touched node (0 off outputs) *)
let[@inline] output_diff t i =
  let n = t.touched.(i) in
  if t.is_output.(n) then Int64.logxor (get64 t.faulty (n lsl 3)) (good t n) else 0L

let output_differs t =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < t.n_touched do
    if output_diff t !i <> 0L then found := true;
    incr i
  done;
  !found

(** Simulate one fault against one 64-pattern word of good values.
    Returns the mask of patterns that detect the fault. *)
let detect_word (t : t) (good : int64 array) (fault : Fault.t) : int64 =
  Array.iteri (fun n w -> set64 t.good (n lsl 3) w) good;
  inject_fault t fault;
  let mask = ref 0L in
  for i = 0 to t.n_touched - 1 do
    mask := Int64.logor !mask (output_diff t i)
  done;
  clear t;
  !mask

(** Output bit flips, summed over the outputs, when the stem of [node] is
    inverted under the good values of the last {!simulate_good}. *)
let invert_impact (t : t) node : int =
  inject t node (-1) (Int64.lognot (good t node));
  let bits = ref 0 in
  for i = 0 to t.n_touched - 1 do
    bits := !bits + Sim.popcount64 (output_diff t i)
  done;
  clear t;
  !bits

(* drop every remaining fault the loaded good values detect *)
let drop_detected t (faults : Fault.t array) (remaining : bool array) =
  let dropped = ref 0 in
  for i = 0 to Array.length faults - 1 do
    if remaining.(i) then begin
      inject_fault t faults.(i);
      if output_differs t then begin
        remaining.(i) <- false;
        incr dropped
      end;
      clear t
    end
  done;
  !dropped

type stats = { mutable detected : int; mutable simulated_words : int }

(** Random-pattern fault simulation with dropping.  [faults] is mutated:
    [remaining.(i)] is set to [false] when fault [i] is detected.  Returns
    statistics. *)
let random_simulate ?(seed = 99) ~words (nl : N.t) (faults : Fault.t array)
    (remaining : bool array) : stats =
  let t = create nl in
  let rng = Prng.create seed in
  let stats = { detected = 0; simulated_words = 0 } in
  for _ = 1 to words do
    for i = 0 to Array.length t.input_words - 1 do
      t.input_words.(i) <- Prng.next64 rng
    done;
    simulate_good t t.input_words;
    stats.simulated_words <- stats.simulated_words + 1;
    stats.detected <- stats.detected + drop_detected t faults remaining
  done;
  stats

(** Simulate a single concrete test pattern (from ATPG) against the
    remaining faults, dropping everything it detects.  Unspecified inputs
    must already be filled by the caller. *)
let simulate_pattern (t : t) (pattern : bool array) (faults : Fault.t array)
    (remaining : bool array) : int =
  Array.iteri (fun i b -> t.input_words.(i) <- (if b then -1L else 0L)) pattern;
  simulate_good t t.input_words;
  drop_detected t faults remaining
