(** Parallel-pattern single-fault propagation (HOPE-style): 64 patterns per
    word, event-driven faulty-value propagation restricted to the affected
    region, fault dropping on first detection.

    Good values come from {!Orap_sim.Sim.eval} into the engine's one
    {!Orap_sim.Sim.store}, and faulty words are computed by
    {!Orap_sim.Sim.eval_gate} and written in place over the good ones.
    Before a node's word is overwritten, its good word goes on an undo log
    ([touched] / [undo], a second store); the output differences are read
    against the log and every propagation restores the good words from it
    before it returns.  Node ids are topological, so pending events are
    drained in ascending id order from a bit per node ({!Pending}) and
    every node is overwritten at most once.

    Fault dropping injects only faults that are activated somewhere: a
    fault whose site (the node for a stem fault, the fanin for a branch
    fault) already carries the stuck value in every lane leaves the faulty
    circuit equal to the good one, so it is skipped without propagation.
    [injections] counts the faults actually injected.

    Dropping allocates nothing: the store is touched only through {!Sim}
    operations that return no [int64]. *)

module N = Orap_netlist.Netlist
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng

type t = {
  nl : N.t;
  fanouts : int array array;
  is_output : bool array;
  input_words : int64 array;  (* scratch: one word per input *)
  store : Sim.store;  (* good words; faulty ones in place while propagating *)
  touched : int array;  (* the overwritten nodes, [n_touched] of them *)
  undo : Sim.store;  (* the good word of [touched.(i)] as word [i] *)
  mutable n_touched : int;
  pending : Pending.t;
  mutable injections : int;  (* faults injected, over the engine's life *)
}

let create (nl : N.t) : t =
  let n = N.num_nodes nl in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (N.outputs nl);
  {
    nl;
    fanouts = N.fanouts nl;
    is_output;
    input_words = Array.make (N.num_inputs nl) 0L;
    store = Sim.store nl;
    touched = Array.make n 0;
    undo = Sim.store nl;
    n_touched = 0;
    pending = Pending.create n;
    injections = 0;
  }

(* the good word of the [i]-th touched node *)
let[@inline] logged t i = Sim.word t.undo i

(* [n] is about to be overwritten: log its good word in the next slot *)
let[@inline] log t n =
  t.touched.(t.n_touched) <- n;
  Sim.copy_word t.store n t.undo t.n_touched

let schedule_fanouts t n =
  let fo = t.fanouts.(n) in
  for i = 0 to Array.length fo - 1 do
    Pending.push t.pending fo.(i)
  done

(* the faulty word of [n] was just written over the good word logged for
   it: keep the log entry when they differ and schedule the readers *)
let commit t n =
  if not (Sim.same_word t.store n t.undo t.n_touched) then begin
    t.n_touched <- t.n_touched + 1;
    schedule_fanouts t n
  end

(* drain the pending events in id (= topological) order; the fault site is
   never re-evaluated, since every event lies downstream of it *)
let rec propagate t =
  let i = Pending.pop t.pending in
  if i >= 0 then begin
    log t i;
    Sim.eval_gate t.nl t.store i (-1) 0L;
    commit t i;
    propagate t
  end

(* set the faulty word of [n] to [w] ([pos] = -1, a stem fault) or to its
   value with fanin [pos] stuck at [w] (a branch fault: only [n] reads the
   branch), and propagate it *)
let inject t n pos w =
  log t n;
  if pos < 0 then Sim.set_word t.store n w else Sim.eval_gate t.nl t.store n pos w;
  commit t n;
  propagate t

let[@inline] stuck_word (fault : Fault.t) = if fault.Fault.stuck then -1L else 0L

let inject_fault t (fault : Fault.t) =
  t.injections <- t.injections + 1;
  let w = stuck_word fault in
  match fault.Fault.site with
  | Fault.Output n -> inject t n (-1) w
  | Fault.Input (n, pos) -> inject t n pos w

(* end a propagation: restore the good words from the undo log *)
let restore t =
  for i = 0 to t.n_touched - 1 do
    Sim.copy_word t.undo i t.store t.touched.(i)
  done;
  t.n_touched <- 0

(* the output difference word of the [i]-th touched node (0 off outputs) *)
let[@inline] output_diff t i =
  let n = t.touched.(i) in
  if t.is_output.(n) then Int64.logxor (Sim.word t.store n) (logged t i) else 0L

let output_differs t =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < t.n_touched do
    let n = t.touched.(!i) in
    if t.is_output.(n) && not (Sim.same_word t.store n t.undo !i) then found := true;
    incr i
  done;
  !found

(* the site already carries the stuck value in every lane: the faulty
   circuit is the good one *)
let unactivated t (fault : Fault.t) =
  let site =
    match fault.Fault.site with
    | Fault.Output n -> n
    | Fault.Input (n, pos) -> (N.fanins t.nl n).(pos)
  in
  Sim.word_is t.store site (stuck_word fault)

(** Simulate one fault against one 64-pattern word: [inputs] holds one
    word per primary input.  Returns the mask of patterns that detect the
    fault.  Raises [Invalid_argument] on a wrong input count. *)
let detect_word (t : t) (inputs : int64 array) (fault : Fault.t) : int64 =
  Sim.eval t.nl t.store inputs;
  inject_fault t fault;
  let mask = ref 0L in
  for i = 0 to t.n_touched - 1 do
    mask := Int64.logor !mask (output_diff t i)
  done;
  restore t;
  !mask

(** Output bit flips, summed over the outputs, when the stem of [node] is
    inverted under the good values last simulated into [t.store]. *)
let invert_impact (t : t) node : int =
  inject t node (-1) (Int64.lognot (Sim.word t.store node));
  let bits = ref 0 in
  for i = 0 to t.n_touched - 1 do
    bits := !bits + Sim.popcount64 (output_diff t i)
  done;
  restore t;
  !bits

(* drop every remaining fault the loaded good values detect *)
let drop_detected t (faults : Fault.t array) (remaining : bool array) =
  let dropped = ref 0 in
  for i = 0 to Array.length faults - 1 do
    if remaining.(i) && not (unactivated t faults.(i)) then begin
      inject_fault t faults.(i);
      if output_differs t then begin
        remaining.(i) <- false;
        incr dropped
      end;
      restore t
    end
  done;
  !dropped

type stats = {
  mutable detected : int;
  mutable simulated_words : int;
  mutable injections : int;  (** faults injected: the rest were unactivated *)
}

(** Random-pattern fault simulation with dropping.  [faults] is mutated:
    [remaining.(i)] is set to [false] when fault [i] is detected.  Returns
    statistics. *)
let random_simulate ?(seed = 99) ~words (nl : N.t) (faults : Fault.t array)
    (remaining : bool array) : stats =
  let t = create nl in
  let rng = Prng.create seed in
  let stats = { detected = 0; simulated_words = 0; injections = 0 } in
  for _ = 1 to words do
    for i = 0 to Array.length t.input_words - 1 do
      t.input_words.(i) <- Prng.next64 rng
    done;
    Sim.eval nl t.store t.input_words;
    stats.simulated_words <- stats.simulated_words + 1;
    stats.detected <- stats.detected + drop_detected t faults remaining
  done;
  stats.injections <- t.injections;
  stats

(** Simulate a single concrete test pattern (from ATPG) against the
    remaining faults, dropping everything it detects.  Unspecified inputs
    must already be filled by the caller; raises [Invalid_argument] unless
    the pattern has one value per primary input. *)
let simulate_pattern (t : t) (pattern : bool array) (faults : Fault.t array)
    (remaining : bool array) : int =
  if Array.length pattern <> Array.length t.input_words then
    invalid_arg "Fsim.simulate_pattern: one value per primary input required";
  Array.iteri (fun i b -> t.input_words.(i) <- (if b then -1L else 0L)) pattern;
  Sim.eval t.nl t.store t.input_words;
  drop_detected t faults remaining
