(** PODEM test-pattern generation for single stuck-at faults.

    The implication engine is event-driven over the five-valued calculus,
    with the fault inserted at its site; decisions are made only on primary
    inputs, objectives come from fault activation and the D-frontier, and
    backtrace is guided by SCOAP controllabilities.

    Node values are stored as one byte per node (the codes of [F], [T], [D],
    [D'], [X] are 0..4).  [create] compiles the netlist once per engine.
    Each node gets a table class, one byte, naming a pair of 5×5 tables
    in [tables], built from {!Five} with any inversion folded into the
    second: a fault-free node of up to three fanins [a], [b], [c] is
    [second.(first.(a, b), c)], two lookups and no branch on its kind.  A
    table ignores the operands its gate lacks: an input is a BUF of
    itself, a constant ignores all three, and a 1-fanin AND/OR/XOR is a
    BUF and its inverting twin a NOT.  A gate of four or more fanins folds
    its fanins after the second through [first] from a spill array and
    the last through [second]; a MUX reads one 125-entry table.  The
    operand ids are packed two to an int, and the readers are the
    netlist's own index ({!Orap_netlist.Netlist.fanouts}), whose order
    is the D-frontier's.  Only the fault node evaluates through the
    fault ([eval_faulty], by its kind).  Node ids are topological, so
    [propagate] drains the pending events in ascending id order through
    {!Orap_faultsim.Pending}.

    Every value change is recorded on a trail, and each decision keeps the
    trail length at the moment it was made.  Un-assigning a decided input
    resets the nodes trailed since its mark to [X]: node values are a
    function of the input assignment alone and the five-valued operators
    are monotone, so every node that changed after the mark was [X] at the
    mark.

    Implication is confined to the fault's region R = TFO(site) ∪
    TFI(TFO(site)), the fault node's fanout cone and everything that cone
    reads.  The search reads no node outside R: objectives, the
    D-frontier, X-paths and detection live in the TFO; backtrace and
    [pick_x] walk fanins of TFO nodes or of the activation target (the
    fault node or one of its fanins); and test extraction reads inputs, of
    which one outside R is never decided.  R is fanin-closed, so no node outside
    it can schedule or feed one inside it: every node of R is evaluated in
    the same id order, to the same value, as under whole-circuit
    implication, and the search is the same step for step.  R depends on
    the fault node alone and is marked again only when that node changes.

    The fold order of [d_nodes] (a [Hashtbl]) breaks ties between frontier
    gates at equal distance to an output, so the table's exact history of
    [replace]/[remove]/[reset] is part of Table II's output.  Only nodes of
    R carry D/D', so R leaves that history as it was; a value change
    touches [d_nodes] and [d_outputs] only when its old or new value is
    D/D', as few of them do. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Fault = Orap_faultsim.Fault
module Pending = Orap_faultsim.Pending

type outcome =
  | Test of bool option array  (** per-PI assignment; [None] = don't-care *)
  | Redundant
  | Aborted

(* value codes: the constructor order of [Five.t] *)
let five = [| Five.F; Five.T; Five.D; Five.Db; Five.X |]
let c_f = 0
let c_t = 1
let c_x = 4
let[@inline] is_d c = c land 6 = 2

let code v =
  match v with Five.F -> 0 | Five.T -> 1 | Five.D -> 2 | Five.Db -> 3 | Five.X -> 4

let table1 f = Bytes.init 5 (fun a -> Char.chr (code (f five.(a))))

let table2 f =
  Bytes.init 25 (fun i -> Char.chr (code (f five.(i / 5) five.(i mod 5))))

let and_t = table2 Five.v_and
let or_t = table2 Five.v_or
let xor_t = table2 Five.v_xor
let not_t = table1 Five.v_not
let faulted_t = [| table1 (Five.faulted ~stuck:false); table1 (Five.faulted ~stuck:true) |]
let[@inline] ap1 t a = Char.code (Bytes.unsafe_get t a)
let[@inline] ap2 t a b = Char.code (Bytes.unsafe_get t ((a * 5) + b))

(* Class [k] < [mux] owns bytes [50k, 50k + 50) of [tables]: [first] at
   [50k] and [second] at [50k + 25].  The classes are [buf], [not_],
   [const0], [const1]; then AND, NAND, OR, NOR, XOR, XNOR of two fanins
   ([two] + the kind's position among the six) and of three ([three] +
   the position), whose [second] folds in the third.  [mux] owns the 125
   bytes after them, and a gate of four or more fanins is [wide] + the
   position, on the three-fanin tables. *)
let buf = 0
let not_ = 1
let const0 = 2
let const1 = 3
let two = 4
let three = 10
let mux = 16
let wide = 17

let tables =
  let ops = Five.[| v_and; v_and; v_or; v_or; v_xor; v_xor |] in
  let post k v = if k land 1 = 1 then Five.v_not v else v in
  let first a _ = a and const v _ _ = v in
  let pairs =
    Array.concat
      [ [| (first, fun t _ -> t); (first, fun t _ -> Five.v_not t);
           (const Five.F, const Five.F); (const Five.T, const Five.T) |];
        Array.init 6 (fun k -> (ops.(k), fun t _ -> post k t));
        Array.init 6 (fun k -> (ops.(k), fun t c -> post k (ops.(k) t c))) ]
  in
  let t = Bytes.create ((50 * mux) + 125) in
  Array.iteri
    (fun k (f, s) ->
      Bytes.blit (table2 f) 0 t (50 * k) 25;
      Bytes.blit (table2 s) 0 t ((50 * k) + 25) 25)
    pairs;
  for i = 0 to 124 do
    let sel = five.(i / 25) and a = five.(i / 5 mod 5) and b = five.(i mod 5) in
    Bytes.set t ((50 * mux) + i)
      (Char.chr (code Five.(v_or (v_and (v_not sel) a) (v_and sel b))))
  done;
  t

let[@inline] lookup o x y = Char.code (Bytes.unsafe_get tables (o + (x * 5) + y))

type engine = {
  nl : N.t;
  (* the compiled netlist: per node its class, and its operands at
     [ops.(2n)] = a lsl 31 lor b and [ops.(2n + 1)] = c, or for a [wide]
     gate its spilled fanins [spill.(s .. e - 1)] as s lsl 31 lor e *)
  cls : Bytes.t;
  ops : int array;
  spill : int array;
  (* [N.fanouts]'s arrays, held here so that hot loops load them directly *)
  start : int array;
  readers : int array;
  is_output : bool array;
  scoap : Scoap.t;
  consts : int array;  (* Const0/Const1 nodes, implied up-front by [run] *)
  values : Bytes.t;  (* value code per node *)
  d_nodes : (int, unit) Hashtbl.t;  (* nodes currently carrying D/D' *)
  mutable d_outputs : int;  (* outputs currently carrying D/D' *)
  pending : Pending.t;
  (* every value change since the start of the search, in order *)
  mutable trail : int array;
  mutable trail_len : int;
  (* the decision stack of [run]: input, value, flipped yet, trail mark *)
  st_pi : int array;
  st_v : bool array;
  st_flipped : bool array;
  st_mark : int array;
  (* stamped scratch: D-frontier membership and memoised X-path results *)
  seen : int array;
  xpath : int array;  (* [2 * stamp] = no path, [2 * stamp + 1] = path *)
  mutable stamp : int;
  frontier : int array;  (* distinct nodes, thanks to [seen] *)
  mutable frontier_len : int;
  (* the fault's region: node [n] is in it iff [region.(n) = region_stamp];
     [frontier] doubles as the worklist that marks it.  It depends on the
     fault node alone, so it is kept while consecutive faults share
     [region_node] *)
  region : int array;
  mutable region_stamp : int;
  mutable region_node : int;
  (* the current fault: its node, fanin position (-1 = output stem), stuck
     value and the table applying it *)
  mutable fault_node : int;
  mutable fault_pos : int;
  mutable stuck : bool;
  mutable faulted : Bytes.t;
  (* cumulative over every [run] *)
  mutable decisions : int;
  mutable backtracks : int;
  mutable implications : int;
}

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

(* [kind]'s position among AND, NAND, OR, NOR, XOR, XNOR *)
let assoc_pos (k : Gate.kind) =
  match k with
  | Gate.And -> 0 | Gate.Nand -> 1 | Gate.Or -> 2 | Gate.Nor -> 3 | Gate.Xor -> 4
  | Gate.Xnor -> 5 | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not
  | Gate.Mux -> invalid_arg "Podem.assoc_pos"

(* the class and the operands of node [i]; the operands a table ignores
   repeat one it reads *)
let compile_node nl i =
  let fan = N.fanins nl i in
  let a = Array.length fan in
  match N.kind nl i with
  | Gate.Input -> (buf, i, i, i)
  | Gate.Const0 -> (const0, i, i, i)
  | Gate.Const1 -> (const1, i, i, i)
  | Gate.Buf -> (buf, fan.(0), fan.(0), fan.(0))
  | Gate.Not -> (not_, fan.(0), fan.(0), fan.(0))
  | Gate.Mux -> (mux, fan.(0), fan.(1), fan.(2))
  | k ->
    let p = assoc_pos k in
    if a = 1 then ((if p land 1 = 0 then buf else not_), fan.(0), fan.(0), fan.(0))
    else if a = 2 then (two + p, fan.(0), fan.(1), fan.(1))
    else if a = 3 then (three + p, fan.(0), fan.(1), fan.(2))
    else (wide + p, fan.(0), fan.(1), -1)

let create (nl : N.t) : engine =
  let n = N.num_nodes nl in
  if n > 1 lsl id_bits then
    invalid_arg "Podem.create: more than 2^31 nodes cannot be packed";
  let spilled = ref 0 in
  for i = 0 to n - 1 do
    let a = Array.length (N.fanins nl i) in
    if a > 3 then spilled := !spilled + a - 2
  done;
  if !spilled > 1 lsl id_bits then
    invalid_arg "Podem.create: more than 2^31 spilled fanins cannot be packed";
  let cls = Bytes.create n and ops = Array.make (2 * n) 0 in
  let spill = Array.make !spilled 0 and sp = ref 0 and consts = ref [] in
  for i = 0 to n - 1 do
    let fan = N.fanins nl i in
    let k, a, b, c = compile_node nl i in
    Bytes.set cls i (Char.chr k);
    ops.(2 * i) <- (a lsl id_bits) lor b;
    if k >= wide then begin
      let m = Array.length fan - 2 in
      Array.blit fan 2 spill !sp m;
      ops.((2 * i) + 1) <- (!sp lsl id_bits) lor (!sp + m);
      sp := !sp + m
    end
    else ops.((2 * i) + 1) <- c;
    if k = const0 || k = const1 then consts := i :: !consts
  done;
  let ni = N.num_inputs nl and fo = N.fanouts nl in
  {
    nl;
    cls;
    ops;
    spill;
    start = fo.N.start;
    readers = fo.N.readers;
    is_output = fo.N.is_output;
    scoap = Scoap.compute nl;
    consts = Array.of_list !consts;
    values = Bytes.make n (Char.chr c_x);
    d_nodes = Hashtbl.create 64;
    d_outputs = 0;
    pending = Pending.create n;
    trail = Array.make (max 16 n) 0;
    trail_len = 0;
    st_pi = Array.make (ni + 1) 0;
    st_v = Array.make (ni + 1) false;
    st_flipped = Array.make (ni + 1) false;
    st_mark = Array.make (ni + 1) 0;
    seen = Array.make n 0;
    xpath = Array.make n 0;
    stamp = 0;
    frontier = Array.make n 0;
    frontier_len = 0;
    region = Array.make n 0;
    region_stamp = 0;
    region_node = -1;
    fault_node = -1;
    fault_pos = -1;
    stuck = false;
    faulted = faulted_t.(0);
    decisions = 0;
    backtracks = 0;
    implications = 0;
  }

let[@inline] get e n = Char.code (Bytes.unsafe_get e.values n)

(* value of fault-free node [n] recomputed from current fanin values *)
let eval_plain e n =
  let k = Char.code (Bytes.unsafe_get e.cls n) in
  let ab = Array.unsafe_get e.ops (2 * n) and w = Array.unsafe_get e.ops ((2 * n) + 1) in
  let a = get e (ab lsr id_bits) and b = get e (ab land id_mask) in
  if k < mux then
    let o = 50 * k in
    lookup (o + 25) (lookup o a b) (get e w)
  else if k = mux then lookup ((50 * mux) + (25 * a)) b (get e w)
  else begin
    (* a wide gate: the spilled fanins through [first], the last through
       [second] *)
    let o = 50 * (k - wide + three) and s = w lsr id_bits and stop = (w land id_mask) - 1 in
    let t = ref (lookup o a b) in
    for j = s to stop - 1 do
      t := lookup o !t (get e (Array.unsafe_get e.spill j))
    done;
    lookup (o + 25) !t (get e (Array.unsafe_get e.spill stop))
  end

(* fanin [pos] of the fault node, with the fault inserted when it is the
   faulty branch *)
let[@inline] operand e fan pos =
  let v = get e fan.(pos) in
  if pos = e.fault_pos then ap1 e.faulted v else v

let fold_faulty e fan t init =
  let acc = ref init in
  for pos = 0 to Array.length fan - 1 do
    acc := ap2 t !acc (operand e fan pos)
  done;
  !acc

(* value of the fault node, with the fault inserted *)
let eval_faulty e n =
  let fan = N.fanins e.nl n in
  let v =
    match N.kind e.nl n with
    | Gate.Input -> get e n
    | Gate.Const0 -> c_f
    | Gate.Const1 -> c_t
    | Gate.Buf -> operand e fan 0
    | Gate.Not -> ap1 not_t (operand e fan 0)
    | Gate.And -> fold_faulty e fan and_t c_t
    | Gate.Nand -> ap1 not_t (fold_faulty e fan and_t c_t)
    | Gate.Or -> fold_faulty e fan or_t c_f
    | Gate.Nor -> ap1 not_t (fold_faulty e fan or_t c_f)
    | Gate.Xor -> fold_faulty e fan xor_t c_f
    | Gate.Xnor -> ap1 not_t (fold_faulty e fan xor_t c_f)
    | Gate.Mux ->
      let sel = operand e fan 0 in
      ap2 or_t
        (ap2 and_t (ap1 not_t sel) (operand e fan 1))
        (ap2 and_t sel (operand e fan 2))
  in
  if e.fault_pos < 0 then ap1 e.faulted v else v

(* value of node [n] recomputed from current fanin values; only the fault
   node reads through the fault *)
let[@inline] eval_node e n = if n = e.fault_node then eval_faulty e n else eval_plain e n

let set_value e n v =
  let old = get e n in
  if is_d old || is_d v then begin
    if is_d old then Hashtbl.remove e.d_nodes n;
    if is_d v then Hashtbl.replace e.d_nodes n ();
    if e.is_output.(n) then
      e.d_outputs <- e.d_outputs + Bool.to_int (is_d v) - Bool.to_int (is_d old)
  end;
  Bytes.unsafe_set e.values n (Char.unsafe_chr v);
  if e.trail_len = Array.length e.trail then begin
    let t = Array.make (2 * e.trail_len) 0 in
    Array.blit e.trail 0 t 0 e.trail_len;
    e.trail <- t
  end;
  e.trail.(e.trail_len) <- n;
  e.trail_len <- e.trail_len + 1

(* reset every node trailed since [mark] to X; removal order does not
   matter to [d_nodes], whose fold order depends only on what it holds and
   when each entry was inserted *)
let undo_to e mark =
  for i = e.trail_len - 1 downto mark do
    let n = e.trail.(i) in
    if is_d (get e n) then begin
      Hashtbl.remove e.d_nodes n;
      if e.is_output.(n) then e.d_outputs <- e.d_outputs - 1
    end;
    Bytes.unsafe_set e.values n (Char.unsafe_chr c_x)
  done;
  e.trail_len <- mark

let[@inline] in_region e n = Array.unsafe_get e.region n = e.region_stamp

let[@inline] schedule_fanouts e n =
  for k = Array.unsafe_get e.start n to Array.unsafe_get e.start (n + 1) - 1 do
    let r = Array.unsafe_get e.readers k in
    if in_region e r then Pending.push e.pending r
  done

(* stamp the fault's region: the fanout cone of the fault node, then
   everything that cone reads, each node's fanouts or fanins walked once *)
let mark_region e =
  e.region_stamp <- e.region_stamp + 1;
  let q = e.frontier and len = ref 0 in
  let add n =
    if not (in_region e n) then begin
      e.region.(n) <- e.region_stamp;
      q.(!len) <- n;
      incr len
    end
  in
  add e.fault_node;
  let i = ref 0 in
  while !i < !len do
    let m = q.(!i) in
    for k = e.start.(m) to e.start.(m + 1) - 1 do
      add (Array.unsafe_get e.readers k)
    done;
    incr i
  done;
  i := 0;
  while !i < !len do
    let fan = N.fanins e.nl q.(!i) in
    for j = 0 to Array.length fan - 1 do
      add (Array.unsafe_get fan j)
    done;
    incr i
  done

(* drain the pending events in id (= topological) order *)
let propagate e =
  let p = e.pending and events = ref 0 in
  let i = ref (Pending.pop p) in
  while !i >= 0 do
    let n = !i in
    incr events;
    let v = eval_node e n in
    if v <> get e n then begin
      set_value e n v;
      schedule_fanouts e n
    end;
    i := Pending.pop p
  done;
  e.implications <- e.implications + !events

(* forward event-driven implication after PI node [pi] changed *)
let imply e pi =
  (* the PI itself may be a fault site *)
  let v = eval_node e pi in
  if v <> get e pi then set_value e pi v;
  schedule_fanouts e pi;
  propagate e

(* store the raw PI value; fault-at-PI is applied inside eval_node *)
let set_pi e pi v =
  if get e pi <> v then set_value e pi v;
  imply e pi

let detected e = e.d_outputs > 0

(* driver whose good value must be set to activate the fault *)
let activation_target e =
  if e.fault_pos < 0 then e.fault_node else (N.fanins e.nl e.fault_node).(e.fault_pos)

(* five-valued value of the fault site branch, after fault insertion *)
let site_effect e =
  if e.fault_pos < 0 then get e e.fault_node
  else ap1 e.faulted (get e (activation_target e))

(* D-frontier: X-valued fanouts of D-carrying nodes, in [d_nodes] fold
   order and fanout order *)
let d_frontier e =
  e.frontier_len <- 0;
  Hashtbl.iter
    (fun n () ->
      for k = e.start.(n) to e.start.(n + 1) - 1 do
        let r = e.readers.(k) in
        if get e r = c_x && e.seen.(r) <> e.stamp then begin
          e.seen.(r) <- e.stamp;
          e.frontier.(e.frontier_len) <- r;
          e.frontier_len <- e.frontier_len + 1
        end
      done)
    e.d_nodes

(* is there a path of X-valued nodes from [n]'s output to a PO?  Memoised
   for the current stamp (one objective: values do not change) *)
let rec x_path e n =
  if e.is_output.(n) then true
  else if e.xpath.(n) lsr 1 = e.stamp then e.xpath.(n) land 1 = 1
  else begin
    let found = ref false and k = ref e.start.(n) in
    while (not !found) && !k < e.start.(n + 1) do
      let r = e.readers.(!k) in
      if get e r = c_x && x_path e r then found := true;
      incr k
    done;
    e.xpath.(n) <- (2 * e.stamp) + Bool.to_int !found;
    !found
  end

exception Backtrace_blocked

let cc e b f = if b then e.scoap.Scoap.cc1.(f) else e.scoap.Scoap.cc0.(f)

(* among the X fanins of [fan], the first with the least (or, with
   [hardest], the greatest) [b]-controllability *)
let pick_x e ~hardest b fan =
  let best = ref (-1) in
  for i = 0 to Array.length fan - 1 do
    let f = fan.(i) in
    if get e f = c_x then
      if !best < 0 then best := f
      else begin
        let c = cc e b f and cb = cc e b !best in
        if (hardest && c > cb) || ((not hardest) && c < cb) then best := f
      end
  done;
  if !best < 0 then raise Backtrace_blocked else !best

(* walk an objective (node, desired boolean) down to a PI assignment *)
let rec backtrace e n want =
  let fan = N.fanins e.nl n in
  match N.kind e.nl n with
  | Gate.Input -> (n, want)
  | Gate.Const0 | Gate.Const1 -> raise Backtrace_blocked
  | Gate.Buf -> backtrace e fan.(0) want
  | Gate.Not -> backtrace e fan.(0) (not want)
  | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as k ->
    let inverted = k = Gate.Nand || k = Gate.Nor in
    let controlling = k = Gate.Or || k = Gate.Nor in
    let v' = if inverted then not want else want in
    if v' = controlling then
      (* one controlling input suffices: easiest *)
      backtrace e (pick_x e ~hardest:false controlling fan) controlling
    else
      (* all inputs must be non-controlling: hardest first *)
      let nc = not controlling in
      backtrace e (pick_x e ~hardest:true nc fan) nc
  | (Gate.Xor | Gate.Xnor) as k ->
    let known_parity =
      Array.fold_left (fun acc f -> if get e f = c_t then not acc else acc) false fan
    in
    let target = if k = Gate.Xnor then not want else want in
    (* set the chosen X input so that, with all other Xs at 0, parity works *)
    let chosen = pick_x e ~hardest:false false fan in
    backtrace e chosen (target <> known_parity)
  | Gate.Mux ->
    let sel = fan.(0) and a = fan.(1) and b = fan.(2) in
    let s = get e sel in
    if s = c_f then backtrace e a want
    else if s = c_t then backtrace e b want
    else if s = c_x then
      (* choose the branch whose data input is easiest for [want] *)
      backtrace e sel (cc e want a > cc e want b)
    else raise Backtrace_blocked

type objective = Activate of int * bool | Propagate of int

let choose_objective e : objective option =
  if is_d (site_effect e) then begin
    (* activated: pick, among frontier gates with an X-path to an output,
       the first nearest one in frontier order (the X-valued site node of
       a branch fault first, then the D-frontier, latest-found first) *)
    e.stamp <- e.stamp + 1;
    d_frontier e;
    let d = e.scoap.Scoap.dist_po in
    let best = ref (-1) in
    let consider g =
      if (!best < 0 || d.(g) < d.(!best)) && x_path e g then best := g
    in
    if e.fault_pos >= 0 && get e e.fault_node = c_x then consider e.fault_node;
    for i = e.frontier_len - 1 downto 0 do
      consider e.frontier.(i)
    done;
    if !best < 0 then None else Some (Propagate !best)
  end
  else begin
    let tgt = activation_target e in
    if get e tgt = c_x then Some (Activate (tgt, not e.stuck))
    else None (* conflict: cannot excite *)
  end

(* from a propagation objective, produce a (node, value) goal: an X side
   input of the frontier gate set to the non-controlling value *)
let propagation_goal e g =
  let fan = N.fanins e.nl g in
  match Array.find_opt (fun f -> get e f = c_x) fan with
  | None -> None
  | Some x -> (
    match N.kind e.nl g with
    | Gate.And | Gate.Nand -> Some (x, true)
    | Gate.Or | Gate.Nor -> Some (x, false)
    | Gate.Xor | Gate.Xnor | Gate.Buf | Gate.Not -> Some (x, false)
    | Gate.Mux ->
      let sel = fan.(0) in
      (* with the select unknown, select the branch carrying the D *)
      if get e sel = c_x then Some (sel, is_d (get e fan.(2))) else Some (x, false)
    | Gate.Input | Gate.Const0 | Gate.Const1 -> None)

(** Generate a test for [fault], or prove redundancy, within
    [backtrack_limit] backtracks. *)
let run (e : engine) (fault : Fault.t) ~backtrack_limit : outcome =
  (match fault.Fault.site with
  | Fault.Output n ->
    e.fault_node <- n;
    e.fault_pos <- -1
  | Fault.Input (n, pos) ->
    e.fault_node <- n;
    e.fault_pos <- pos);
  e.stuck <- fault.Fault.stuck;
  e.faulted <- faulted_t.(Bool.to_int e.stuck);
  if e.fault_node <> e.region_node then begin
    e.region_node <- e.fault_node;
    mark_region e
  end;
  (* reset state *)
  Bytes.fill e.values 0 (Bytes.length e.values) (Char.chr c_x);
  Hashtbl.reset e.d_nodes;
  e.d_outputs <- 0;
  (* constants and their cones must be implied up-front *)
  Array.iter (fun c -> if in_region e c then Pending.push e.pending c) e.consts;
  propagate e;
  e.trail_len <- 0;
  let ni = N.num_inputs e.nl in
  let st_pi = e.st_pi and st_v = e.st_v and st_flipped = e.st_flipped and st_mark = e.st_mark in
  let sp = ref 0 in
  let backtracks = ref 0 in
  let decisions = ref 0 in
  let decision_cap = 200 * (ni + 8) in
  let result = ref None in
  while !result = None do
    incr decisions;
    if !decisions > decision_cap then result := Some Aborted
    else if detected e then begin
      let test =
        Array.map
          (fun id ->
            (* a PI fault site reads D/D': its good value is the input *)
            match five.(get e id) with
            | Five.T | Five.D -> Some true
            | Five.F | Five.Db -> Some false
            | Five.X -> None)
          (N.inputs e.nl)
      in
      result := Some (Test test)
    end
    else begin
      let goal =
        match choose_objective e with
        | None -> None
        | Some (Activate (n, v)) -> (
          try Some (backtrace e n v) with Backtrace_blocked -> None)
        | Some (Propagate g) -> (
          match propagation_goal e g with
          | None -> None
          | Some (n, v) -> (
            try Some (backtrace e n v) with Backtrace_blocked -> None))
      in
      match goal with
      | Some (pi, v) ->
        st_pi.(!sp) <- pi;
        st_v.(!sp) <- v;
        st_flipped.(!sp) <- false;
        st_mark.(!sp) <- e.trail_len;
        incr sp;
        set_pi e pi (if v then c_t else c_f)
      | None ->
        (* conflict: backtrack *)
        incr backtracks;
        if !backtracks > backtrack_limit then result := Some Aborted
        else begin
          let rec unwind () =
            if !sp = 0 then result := Some Redundant
            else begin
              decr sp;
              if st_flipped.(!sp) then begin
                undo_to e st_mark.(!sp);
                unwind ()
              end
              else begin
                let v = not st_v.(!sp) in
                st_v.(!sp) <- v;
                st_flipped.(!sp) <- true;
                incr sp;
                set_pi e st_pi.(!sp - 1) (if v then c_t else c_f)
              end
            end
          in
          unwind ()
        end
    end
  done;
  e.decisions <- e.decisions + !decisions;
  e.backtracks <- e.backtracks + !backtracks;
  match !result with Some r -> r | None -> assert false

type stats = { decisions : int; backtracks : int; implications : int }

let stats (e : engine) =
  { decisions = e.decisions; backtracks = e.backtracks; implications = e.implications }
