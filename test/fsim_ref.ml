(** Reference fault dropping: the per-fault injection engine as it stood
    before [Orap_faultsim.Fsim] dropped faults by fanout-free region, kept
    only for the differential properties in [test_prop_testability.ml].
    Every live, activated fault is injected at its own site and propagated
    event by event to the outputs; nothing is shared between faults.  Do
    not optimise this file: its value is that it is the old, obviously
    exact engine. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng
module Fault = Orap_faultsim.Fault
module Pending = Orap_faultsim.Pending

type t = {
  nl : N.t;
  fanouts : int array array;
  is_output : bool array;
  input_words : int64 array;
  store : Sim.store;  (* good words; faulty ones in place while propagating *)
  touched : int array;  (* the overwritten nodes, [n_touched] of them *)
  undo : Sim.store;  (* the good word of [touched.(i)] as word [i] *)
  mutable n_touched : int;
  pending : Pending.t;
}

let create (nl : N.t) : t =
  let n = N.num_nodes nl in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (N.outputs nl);
  {
    nl;
    fanouts = Util.fanout_lists nl;
    is_output;
    input_words = Array.make (N.num_inputs nl) 0L;
    store = Sim.store nl;
    touched = Array.make n 0;
    undo = Sim.store nl;
    n_touched = 0;
    pending = Pending.create n;
  }

let log t n =
  t.touched.(t.n_touched) <- n;
  Sim.copy_word t.store n t.undo t.n_touched

let schedule_fanouts t n = Array.iter (Pending.push t.pending) t.fanouts.(n)

let commit t n =
  if not (Sim.same_word t.store n t.undo t.n_touched) then begin
    t.n_touched <- t.n_touched + 1;
    schedule_fanouts t n
  end

let rec propagate t =
  let i = Pending.pop t.pending in
  if i >= 0 then begin
    log t i;
    Sim.eval_gate t.nl t.store i;
    commit t i;
    propagate t
  end

(* the word of gate [n] with fanin [pos] reading [w] (a branch fault) *)
let forced_word t n pos w =
  let fan = N.fanins t.nl n in
  let op i = if i = pos then w else Sim.word t.store fan.(i) in
  let fold f =
    let acc = ref (op 0) in
    for i = 1 to Array.length fan - 1 do
      acc := f !acc (op i)
    done;
    !acc
  in
  match N.kind t.nl n with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> invalid_arg "Fsim_ref.forced_word: no fanin"
  | Gate.Buf -> op 0
  | Gate.Not -> Int64.lognot (op 0)
  | Gate.And -> fold Int64.logand
  | Gate.Nand -> Int64.lognot (fold Int64.logand)
  | Gate.Or -> fold Int64.logor
  | Gate.Nor -> Int64.lognot (fold Int64.logor)
  | Gate.Xor -> fold Int64.logxor
  | Gate.Xnor -> Int64.lognot (fold Int64.logxor)
  | Gate.Mux -> Int64.logor (Int64.logand (Int64.lognot (op 0)) (op 1)) (Int64.logand (op 0) (op 2))

(* stem fault ([pos] = -1): [n] reads [w]; branch fault: fanin [pos] of
   [n] reads [w] *)
let inject t n pos w =
  log t n;
  Sim.set_word t.store n (if pos < 0 then w else forced_word t n pos w);
  commit t n;
  propagate t

let stuck_word (fault : Fault.t) = if fault.Fault.stuck then -1L else 0L

let inject_fault t (fault : Fault.t) =
  let w = stuck_word fault in
  match fault.Fault.site with
  | Fault.Output n -> inject t n (-1) w
  | Fault.Input (n, pos) -> inject t n pos w

let restore t =
  for i = 0 to t.n_touched - 1 do
    Sim.copy_word t.undo i t.store t.touched.(i)
  done;
  t.n_touched <- 0

let output_mask t =
  let mask = ref 0L in
  for i = 0 to t.n_touched - 1 do
    let n = t.touched.(i) in
    if t.is_output.(n) then
      mask := Int64.logor !mask (Int64.logxor (Sim.word t.store n) (Sim.word t.undo i))
  done;
  !mask

(* the site already carries the stuck value in every lane *)
let unactivated t (fault : Fault.t) =
  let site =
    match fault.Fault.site with
    | Fault.Output n -> n
    | Fault.Input (n, pos) -> (N.fanins t.nl n).(pos)
  in
  Sim.word_is t.store site (stuck_word fault)

(** The patterns of [inputs] (one word per primary input) that detect
    [fault]. *)
let detect_word t inputs fault =
  Sim.eval t.nl t.store inputs;
  inject_fault t fault;
  let mask = output_mask t in
  restore t;
  mask

(** Drop every remaining fault the loaded good values detect; returns how
    many were dropped. *)
let drop_detected t (faults : Fault.t array) (remaining : bool array) =
  let dropped = ref 0 in
  for i = 0 to Array.length faults - 1 do
    if remaining.(i) && not (unactivated t faults.(i)) then begin
      inject_fault t faults.(i);
      if output_mask t <> 0L then begin
        remaining.(i) <- false;
        incr dropped
      end;
      restore t
    end
  done;
  !dropped

(** [words] random 64-pattern words with dropping; returns the number of
    faults dropped.  Draws the words [Fsim.random_simulate] draws. *)
let random_simulate ?(seed = 99) ~words nl faults remaining =
  let t = create nl in
  let rng = Prng.create seed in
  let detected = ref 0 in
  for _ = 1 to words do
    for i = 0 to Array.length t.input_words - 1 do
      t.input_words.(i) <- Prng.next64 rng
    done;
    Sim.eval nl t.store t.input_words;
    detected := !detected + drop_detected t faults remaining
  done;
  !detected

(** One concrete pattern against the remaining faults, dropping what it
    detects; returns the number dropped. *)
let simulate_pattern t pattern faults remaining =
  Array.iteri (fun i b -> t.input_words.(i) <- (if b then -1L else 0L)) pattern;
  Sim.eval t.nl t.store t.input_words;
  drop_detected t faults remaining
