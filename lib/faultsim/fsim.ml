(** Parallel-pattern fault simulation with fault dropping by fanout-free
    region (HOPE-style): 64 patterns per word, one event-driven
    propagation per region root and word, faults dropped on first
    detection.

    {b Regions.}  A node is a region root when it is a primary output or
    has other than one fanout entry (a reader that reads it twice counts
    twice).  Every other node is a region member: it feeds exactly one
    fanin position of one reader and nothing else, so a fault's effect
    inside a region travels along the single path from the fault to the
    region's root and reaches the rest of the circuit only through the
    root.  A fault is therefore detected in the lanes of
    [act ∧ local ∧ obs(root)]:
    - [act]: the lanes where the fault's site (the node of a stem fault,
      the fanin of a branch fault) differs from the stuck value;
    - [local]: the lanes where each gate on the path passes a flip of its
      path fanin, the other fanins holding their good words
      ({!Orap_sim.Sim.sensitise}); a branch fault enters the path at its
      reader and fanin position;
    - [obs(root)]: the lanes where inverting the root's good word flips an
      output.  It is propagated once per word and root, only when some
      fault reaches the root ([act ∧ local ≠ 0]), and memoised under a
      word stamp.
    This is exact: in those lanes the faulty circuit is the good one with
    the root inverted, and in the others it equals the good one outside
    the path, which holds no output.  The region tables are built on the
    first drop, so an engine used only for {!invert_impact} never pays
    for them.

    {b Propagation.}  Good values come from {!Orap_sim.Sim.eval} into the
    engine's one {!Orap_sim.Sim.store}; a root's inverted word is written
    in place and its readers re-evaluated by {!Orap_sim.Sim.eval_gate}.
    Before a node's word is overwritten, its good word goes on an undo log
    ([touched] / [undo], a second store); the output differences are read
    against the log and every propagation restores the good words from it
    before it returns.  Node ids are topological, so pending events are
    drained in ascending id order from a bit per node ({!Pending}) and
    every node is overwritten at most once.

    {b Live faults.}  The engine keeps the indices of the faults still
    remaining in the [faults]/[remaining] pair it last dropped from, and
    visits only those.  A caller may clear [remaining.(i)] between calls;
    to bring a fault back, pass a fresh [remaining] array.

    Dropping allocates nothing once the tables exist: the stores are
    touched only through {!Sim} operations that return no [int64]. *)

module N = Orap_netlist.Netlist
module Sim = Orap_sim.Sim
module Prng = Orap_sim.Prng

(* [up.(n)] packs a node's region state into one int: a member's link to
   its reader, reader lsl [pos_bits] lor fanin position (>= 0, as a
   reader's id is positive); a root's stamp [s] as [lnot s] (< 0), the
   word [obs] holds the root's mask for (0 = none yet) *)
let pos_bits = 31
let pos_mask = (1 lsl pos_bits) - 1

type regions = {
  up : int array;
  obs : Sim.store;  (* per root: the lanes where inverting it flips an output *)
  mask : Sim.store;  (* one word: a fault's lanes, narrowed along its path *)
}

(* live fault indices, 32 bits each *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

type t = {
  nl : N.t;
  (* [N.fanouts]'s arrays, held here so that hot loops load them directly *)
  start : int array;
  readers : int array;
  is_output : bool array;
  input_words : int64 array;  (* scratch: one word per input *)
  store : Sim.store;  (* good words; faulty ones in place while propagating *)
  touched : int array;  (* the overwritten nodes, [n_touched] of them *)
  undo : Sim.store;  (* the good word of [touched.(i)] as word [i] *)
  mutable n_touched : int;
  pending : Pending.t;
  mutable regions : regions option;  (* built on the first drop *)
  mutable word : int;  (* stamp of the good words being dropped against *)
  mutable live : Bytes.t;  (* remaining fault indices, [n_live] of them *)
  mutable n_live : int;
  mutable live_faults : Fault.t array;  (* the pair [live] was taken from *)
  mutable live_remaining : bool array;
  mutable propagations : int;  (* root propagations, over the engine's life *)
}

let create (nl : N.t) : t =
  let n = N.num_nodes nl and fo = N.fanouts nl in
  {
    nl;
    start = fo.N.start;
    readers = fo.N.readers;
    is_output = fo.N.is_output;
    input_words = Array.make (N.num_inputs nl) 0L;
    store = Sim.store nl;
    touched = Array.make n 0;
    undo = Sim.store nl;
    n_touched = 0;
    pending = Pending.create n;
    regions = None;
    word = 0;
    live = Bytes.empty;
    n_live = 0;
    live_faults = [||];
    live_remaining = [||];
    propagations = 0;
  }

let build_regions t =
  let n = N.num_nodes t.nl in
  let up = Array.make n (-1) in
  for r = 0 to n - 1 do
    let fan = N.fanins t.nl r in
    for pos = 0 to Array.length fan - 1 do
      let m = fan.(pos) in
      if t.start.(m + 1) - t.start.(m) = 1 && not t.is_output.(m) then
        up.(m) <- (r lsl pos_bits) lor pos
    done
  done;
  { up; obs = Sim.store t.nl; mask = Sim.words 1 }

let regions t =
  match t.regions with
  | Some rg -> rg
  | None ->
    let rg = build_regions t in
    t.regions <- Some rg;
    rg

(* [n] is about to be overwritten: log its good word in the next slot *)
let[@inline] log t n =
  t.touched.(t.n_touched) <- n;
  Sim.copy_word t.store n t.undo t.n_touched

let schedule_fanouts t n =
  for k = t.start.(n) to t.start.(n + 1) - 1 do
    Pending.push t.pending t.readers.(k)
  done

(* the faulty word of [n] was just written over the good word logged for
   it: keep the log entry when they differ and schedule the readers *)
let commit t n =
  if not (Sim.same_word t.store n t.undo t.n_touched) then begin
    t.n_touched <- t.n_touched + 1;
    schedule_fanouts t n
  end

(* drain the pending events in id (= topological) order; the inverted
   node is never re-evaluated, since every event lies downstream of it *)
let rec propagate t =
  let i = Pending.pop t.pending in
  if i >= 0 then begin
    log t i;
    Sim.eval_gate t.nl t.store i;
    commit t i;
    propagate t
  end

(* invert the good word of [n] in every lane and propagate the flip *)
let invert t n =
  log t n;
  Sim.xor_word t.store n (-1L) t.store n;
  commit t n;
  propagate t

(* end a propagation: restore the good words from the undo log *)
let restore t =
  for i = 0 to t.n_touched - 1 do
    Sim.copy_word t.undo i t.store t.touched.(i)
  done;
  t.n_touched <- 0

(* the output difference word of the [i]-th touched node (0 off outputs) *)
let[@inline] output_diff t i =
  let n = t.touched.(i) in
  if t.is_output.(n) then Int64.logxor (Sim.word t.store n) (Sim.word t.undo i) else 0L

(* obs(root): propagate its inversion once per word *)
let observe t rg root =
  if rg.up.(root) <> lnot t.word then begin
    rg.up.(root) <- lnot t.word;
    t.propagations <- t.propagations + 1;
    invert t root;
    Sim.set_word rg.obs root 0L;
    for i = 0 to t.n_touched - 1 do
      let n = t.touched.(i) in
      if t.is_output.(n) then Sim.or_diff t.store n t.undo i rg.obs root
    done;
    restore t
  end

let[@inline] stuck_word (fault : Fault.t) = if fault.Fault.stuck then -1L else 0L

(* narrow [rg.mask] to the lanes where [fault] flips its region's root,
   [act ∧ local]; the root, or -1 when no lane is left *)
let to_root t rg (fault : Fault.t) =
  let cur = ref (-1) and link = ref (-1) in
  (match fault.Fault.site with
   | Fault.Output n ->
     Sim.xor_word t.store n (stuck_word fault) rg.mask 0;
     cur := n;
     link := rg.up.(n)
   | Fault.Input (n, pos) ->
     Sim.xor_word t.store (N.fanins t.nl n).(pos) (stuck_word fault) rg.mask 0;
     link := (n lsl pos_bits) lor pos);
  while !link >= 0 && not (Sim.word_is rg.mask 0 0L) do
    let r = !link lsr pos_bits in
    Sim.sensitise t.nl t.store r (!link land pos_mask) rg.mask 0;
    cur := r;
    link := rg.up.(r)
  done;
  if Sim.word_is rg.mask 0 0L then -1 else !cur

(* narrow [rg.mask] to the lanes that detect [fault]; false if none *)
let detects t rg fault =
  let root = to_root t rg fault in
  root >= 0
  && begin
    observe t rg root;
    Sim.and_word rg.obs root rg.mask 0;
    not (Sim.word_is rg.mask 0 0L)
  end

(** Simulate one fault against one 64-pattern word: [inputs] holds one
    word per primary input.  Returns the mask of patterns that detect the
    fault.  Raises [Invalid_argument] on a wrong input count. *)
let detect_word (t : t) (inputs : int64 array) (fault : Fault.t) : int64 =
  Sim.eval t.nl t.store inputs;
  t.word <- t.word + 1;
  let rg = regions t in
  if detects t rg fault then Sim.word rg.mask 0 else 0L

(** Output bit flips, summed over the outputs, when the stem of [node] is
    inverted under the good values last simulated into [t.store]. *)
let invert_impact (t : t) node : int =
  invert t node;
  let bits = ref 0 in
  for i = 0 to t.n_touched - 1 do
    bits := !bits + Sim.popcount64 (output_diff t i)
  done;
  restore t;
  !bits

(* take the live list from [remaining] unless it already mirrors it *)
let track t (faults : Fault.t array) (remaining : bool array) =
  if faults != t.live_faults || remaining != t.live_remaining then begin
    if Bytes.length t.live < 4 * Array.length faults then
      t.live <- Bytes.create (4 * Array.length faults);
    t.n_live <- 0;
    for i = 0 to Array.length faults - 1 do
      if remaining.(i) then begin
        set32 t.live (4 * t.n_live) (Int32.of_int i);
        t.n_live <- t.n_live + 1
      end
    done;
    t.live_faults <- faults;
    t.live_remaining <- remaining
  end

(** Drop every remaining fault the good values last simulated into
    [t.store] detect; returns how many were dropped. *)
let drop_detected t (faults : Fault.t array) (remaining : bool array) =
  let rg = regions t in
  track t faults remaining;
  t.word <- t.word + 1;
  let dropped = ref 0 and kept = ref 0 in
  for k = 0 to t.n_live - 1 do
    let i = Int32.to_int (get32 t.live (4 * k)) in
    if remaining.(i) then
      if detects t rg faults.(i) then begin
        remaining.(i) <- false;
        incr dropped
      end
      else begin
        set32 t.live (4 * !kept) (Int32.of_int i);
        incr kept
      end
  done;
  t.n_live <- !kept;
  !dropped

type stats = { mutable detected : int; mutable simulated_words : int }

(** Random-pattern fault simulation with dropping.  [faults] is mutated:
    [remaining.(i)] is set to [false] when fault [i] is detected.  Drops
    on [engine] when given (an engine for [nl], which then keeps the live
    list for the later {!simulate_pattern} calls), else on a fresh one.
    Returns statistics. *)
let random_simulate ?(seed = 99) ?engine ~words (nl : N.t) (faults : Fault.t array)
    (remaining : bool array) : stats =
  let t = match engine with Some t -> t | None -> create nl in
  if t.nl != nl then invalid_arg "Fsim.random_simulate: engine built for another netlist";
  let rng = Prng.create seed in
  let stats = { detected = 0; simulated_words = 0 } in
  for _ = 1 to words do
    for i = 0 to Array.length t.input_words - 1 do
      t.input_words.(i) <- Prng.next64 rng
    done;
    Sim.eval nl t.store t.input_words;
    stats.simulated_words <- stats.simulated_words + 1;
    stats.detected <- stats.detected + drop_detected t faults remaining
  done;
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
