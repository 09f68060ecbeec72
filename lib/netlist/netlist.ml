(** Gate-level combinational netlist.

    Nodes are identified by dense integer ids and stored in topological order
    by construction: a node's fanins must already exist when the node is
    added.  Every analysis over the netlist is therefore a single forward (or
    backward) array sweep. *)

module Schedule = struct
  type op =
    | Const0
    | Const1
    | Buf
    | Not
    | And2
    | Nand2
    | Or2
    | Nor2
    | Xor2
    | Xnor2
    | Mux
    | And_n
    | Nand_n
    | Or_n
    | Nor_n
    | Xor_n
    | Xnor_n

  type t = { ops : op array; ends : int array; code : int array; spill : int array }

  let id_bits = 31
  let[@inline] target w = w lsr id_bits
  let[@inline] first w = w land ((1 lsl id_bits) - 1)

  (* the classes in [op]'s order *)
  let op_of_class =
    [| Const0; Const1; Buf; Not; And2; Nand2; Or2; Nor2; Xor2; Xnor2; Mux;
       And_n; Nand_n; Or_n; Nor_n; Xor_n; Xnor_n |]

  (* [classes.(row k + min a 3)]: the class of a gate of kind [k] with [a]
     fanins, 31 for an input; a 1-fanin AND, OR or XOR is a BUF and its
     inverting twin a NOT.  [row]'s arms are constants, which compile to
     arithmetic rather than a branch that gate order would make mispredict. *)
  let row (k : Gate.kind) =
    match k with
    | Gate.Input -> 0 | Gate.Const0 -> 4 | Gate.Const1 -> 8 | Gate.Buf -> 12
    | Gate.Not -> 16 | Gate.And -> 20 | Gate.Nand -> 24 | Gate.Or -> 28
    | Gate.Nor -> 32 | Gate.Xor -> 36 | Gate.Xnor -> 40 | Gate.Mux -> 44

  let classes =
    [| 31; 31; 31; 31; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3;
       2; 2; 4; 11; 3; 3; 5; 12; 2; 2; 6; 13; 3; 3; 7; 14; 2; 2; 8; 15;
       3; 3; 9; 16; 10; 10; 10; 10 |]

  let mux = 10
  let wide = 11

  (* branch-free [min x 3] and [max x y] *)
  let[@inline] min3 x = let d = x - 3 in 3 + (d land (d asr 62))
  let[@inline] imax x y = let d = y - x in x + (d land lnot (d asr 62))

  (* Two counting sorts, by level and then by class within each level,
     put the gates in (level, class, id) order without comparing any two
     of them.  A gate's strict level is one above its deepest fanin (inputs
     and constants are at level 0), so every fanin precedes its reader.
     Beside the schedule itself, the build allocates one int per node and
     two per level. *)
  let build kinds (fanins : int array array) =
    let n = Array.length kinds in
    if n > 1 lsl id_bits then
      invalid_arg "Netlist.schedule: more than 2^31 nodes cannot be packed";
    (* [key.(i)]: level lsl 5 lor class, class 31 marking an input; later,
       gate [i]'s position in the schedule *)
    let key = Array.make n 31 in
    let depth = ref 0 and gates = ref 0 in
    for i = 0 to n - 1 do
      match kinds.(i) with
      | Gate.Input -> ()
      | k ->
        let fan = fanins.(i) in
        let a = Array.length fan in
        let m = ref (-1) in
        for j = 0 to a - 1 do
          m := imax !m (key.(fan.(j)) lsr 5)
        done;
        let lev = !m + 1 in
        key.(i) <- (lev lsl 5) lor classes.(row k + min3 a);
        incr gates;
        if lev > !depth then depth := lev
    done;
    let g = !gates and depth = !depth in
    (* level [l] takes positions [per_level.(l)] .. [per_level.(l + 1)] - 1 *)
    let per_level = Array.make (depth + 2) 0 in
    Array.iter
      (fun k -> if k land 31 < 31 then per_level.((k lsr 5) + 1) <- per_level.((k lsr 5) + 1) + 1)
      key;
    for l = 1 to depth + 1 do
      per_level.(l) <- per_level.(l) + per_level.(l - 1)
    done;
    (* the gates by level, in id order, to the odd slots of [code] *)
    let code = Array.make (2 * g) 0 in
    let fill = Array.sub per_level 0 (depth + 1) in
    for i = 0 to n - 1 do
      let k = key.(i) in
      if k land 31 < 31 then begin
        let l = k lsr 5 in
        code.((2 * fill.(l)) + 1) <- i;
        fill.(l) <- fill.(l) + 1
      end
    done;
    (* within each level by class: gate [i]'s position to [key.(i)], and
       its class and the number of fanins it spills to its even slot *)
    let per_class = Array.make 18 0 in
    for l = 0 to depth do
      let lo = per_level.(l) and hi = per_level.(l + 1) in
      Array.fill per_class 0 18 0;
      for q = lo to hi - 1 do
        let c = key.(code.((2 * q) + 1)) land 31 in
        per_class.(c + 1) <- per_class.(c + 1) + 1
      done;
      per_class.(0) <- lo;
      for c = 1 to 17 do
        per_class.(c) <- per_class.(c) + per_class.(c - 1)
      done;
      for q = lo to hi - 1 do
        let i = code.((2 * q) + 1) in
        let c = key.(i) land 31 in
        let p = per_class.(c) in
        per_class.(c) <- p + 1;
        key.(i) <- p;
        let spills = if c = mux then 2 else if c >= wide then Array.length fanins.(i) else 0 in
        code.(2 * p) <- (spills lsl 5) lor c
      done
    done;
    (* in schedule order: the runs, and each gate's offset in [spill] to
       its odd slot *)
    let runs = ref 0 and last = ref (-1) and spill_len = ref 0 in
    for p = 0 to g - 1 do
      let x = code.(2 * p) in
      if x land 31 <> !last then begin incr runs; last := x land 31 end;
      code.((2 * p) + 1) <- !spill_len;
      spill_len := !spill_len + (x lsr 5)
    done;
    if !spill_len > 1 lsl id_bits then
      invalid_arg "Netlist.schedule: more than 2^31 spilled fanins cannot be packed";
    let ops = Array.make !runs Const0 and ends = Array.make !runs 0 in
    let r = ref (-1) in
    last := -1;
    for p = 0 to g - 1 do
      let c = code.(2 * p) land 31 in
      if c <> !last then begin
        incr r;
        ops.(!r) <- op_of_class.(c);
        last := c
      end;
      ends.(!r) <- p + 1
    done;
    let spill = Array.make !spill_len 0 in
    for i = 0 to n - 1 do
      match kinds.(i) with
      | Gate.Input -> ()
      | _ ->
        let p = key.(i) and fan = fanins.(i) in
        let c = code.(2 * p) land 31 and sp = code.((2 * p) + 1) and top = i lsl id_bits in
        let a = Array.length fan in
        if c = mux then begin
          (* the select in the code, the data inputs spilled *)
          code.(2 * p) <- top lor fan.(0);
          code.((2 * p) + 1) <- sp;
          spill.(sp) <- fan.(1);
          spill.(sp + 1) <- fan.(2)
        end
        else if c >= wide then begin
          (* a wide gate: its spilled fanins from the first operand to the second *)
          Array.blit fan 0 spill sp a;
          code.(2 * p) <- top lor sp;
          code.((2 * p) + 1) <- sp + a
        end
        else begin
          code.(2 * p) <- top lor (if a > 0 then fan.(0) else 0);
          code.((2 * p) + 1) <- (if a > 1 then fan.(1) else 0)
        end
    done;
    { ops; ends; code; spill }
end

type t = {
  kinds : Gate.kind array;
  fanins : int array array;
  inputs : int array;  (** ids of [Input] nodes, in declaration order *)
  outputs : int array;  (** ids of nodes exposed as primary outputs *)
  names : (int, string) Hashtbl.t;
  ids : (string, int) Hashtbl.t;
  schedule : Schedule.t option Atomic.t;  (** built by the first [schedule] call *)
  fanouts : fanouts option Atomic.t;  (** built by the first [fanouts] call *)
}

and fanouts = { start : int array; readers : int array; is_output : bool array }

let num_nodes t = Array.length t.kinds
let num_inputs t = Array.length t.inputs
let num_outputs t = Array.length t.outputs
let kind t i = t.kinds.(i)
let fanins t i = t.fanins.(i)
let inputs t = t.inputs
let outputs t = t.outputs

let name t i = Hashtbl.find_opt t.names i

let node_name t i =
  match name t i with Some s -> s | None -> Printf.sprintf "n%d" i

let find t s = Hashtbl.find_opt t.ids s

(* [build t], kept in [slot] by the first call.  Two domains may both
   build it; they build the same value, and every later call reads
   whichever was stored.  [build] is a top-level function, not a closure,
   so a later call allocates nothing. *)
let cached slot build t =
  match Atomic.get slot with
  | Some x -> x
  | None ->
    let x = build t in
    if Atomic.compare_and_set slot None (Some x) then x else Option.get (Atomic.get slot)

let build_schedule t = Schedule.build t.kinds t.fanins
let schedule t = cached t.schedule build_schedule t

(* reader counts, their prefix sums, then the readers in id order with
   [fill.(f)] as [f]'s cursor *)
let build_fanouts t =
  let n = num_nodes t in
  let start = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun f -> start.(f + 1) <- start.(f + 1) + 1)) t.fanins;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let readers = Array.make start.(n) 0 and fill = Array.sub start 0 n in
  Array.iteri
    (fun i fan ->
      Array.iter
        (fun f ->
          readers.(fill.(f)) <- i;
          fill.(f) <- fill.(f) + 1)
        fan)
    t.fanins;
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) t.outputs;
  { start; readers; is_output }

let fanouts t = cached t.fanouts build_fanouts t

exception Invalid of string

let invalidf fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

module Builder = struct
  type builder = {
    mutable b_kinds : Gate.kind array;
    mutable b_fanins : int array array;
    mutable b_len : int;
    mutable b_inputs : int list;  (* reversed *)
    mutable b_outputs : int list;  (* reversed *)
    b_names : (int, string) Hashtbl.t;
    b_ids : (string, int) Hashtbl.t;
  }

  let create ?(size_hint = 64) () =
    let n = max 16 size_hint in
    {
      b_kinds = Array.make n Gate.Input;
      b_fanins = Array.make n [||];
      b_len = 0;
      b_inputs = [];
      b_outputs = [];
      b_names = Hashtbl.create 97;
      b_ids = Hashtbl.create 97;
    }

  let length b = b.b_len

  let ensure b =
    if b.b_len = Array.length b.b_kinds then begin
      let n = 2 * b.b_len in
      let kinds = Array.make n Gate.Input in
      Array.blit b.b_kinds 0 kinds 0 b.b_len;
      let fanins = Array.make n [||] in
      Array.blit b.b_fanins 0 fanins 0 b.b_len;
      b.b_kinds <- kinds;
      b.b_fanins <- fanins
    end

  let set_name b id s =
    if Hashtbl.mem b.b_ids s then invalidf "duplicate node name %S" s;
    Hashtbl.replace b.b_names id s;
    Hashtbl.replace b.b_ids s id

  let add_node ?name b kind fanins =
    if not (Gate.arity_ok kind (Array.length fanins)) then
      invalidf "gate %s cannot take %d fanins" (Gate.to_string kind)
        (Array.length fanins);
    Array.iter
      (fun f ->
        if f < 0 || f >= b.b_len then
          invalidf "fanin %d out of range (next id %d): not topological" f
            b.b_len)
      fanins;
    ensure b;
    let id = b.b_len in
    b.b_kinds.(id) <- kind;
    b.b_fanins.(id) <- fanins;
    b.b_len <- id + 1;
    (match kind with
    | Gate.Input -> b.b_inputs <- id :: b.b_inputs
    | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.And | Gate.Nand
    | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux ->
      ());
    (match name with Some s -> set_name b id s | None -> ());
    id

  let add_input ?name b = add_node ?name b Gate.Input [||]
  let mark_output b id = b.b_outputs <- id :: b.b_outputs

  let finish b =
    {
      kinds = Array.sub b.b_kinds 0 b.b_len;
      fanins = Array.sub b.b_fanins 0 b.b_len;
      inputs = Array.of_list (List.rev b.b_inputs);
      outputs = Array.of_list (List.rev b.b_outputs);
      names = b.b_names;
      ids = b.b_ids;
      schedule = Atomic.make None;
      fanouts = Atomic.make None;
    }
end

(** Logic level of every node.  Inverters and buffers are transparent (level
    0 contribution), matching the convention of counting levels of "real"
    gates only. *)
let levels t =
  let n = num_nodes t in
  let lev = Array.make n 0 in
  for i = 0 to n - 1 do
    let fan = t.fanins.(i) in
    let m = ref 0 in
    Array.iter (fun f -> if lev.(f) > !m then m := lev.(f)) fan;
    lev.(i) <-
      (match t.kinds.(i) with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> 0
      | Gate.Buf | Gate.Not -> !m
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor
      | Gate.Mux ->
        !m + 1)
  done;
  lev

(** Longest-path depth of the netlist, in logic levels. *)
let depth t =
  let lev = levels t in
  Array.fold_left (fun acc o -> max acc lev.(o)) 0 t.outputs

(** Gate count excluding inverters and buffers (the paper's "# Gates"). *)
let gate_count t =
  let c = ref 0 in
  Array.iter
    (fun k ->
      match k with
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor
      | Gate.Mux ->
        incr c
      | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not -> ())
    t.kinds;
  !c

(** Count of all logic nodes including inverters and buffers. *)
let node_count t =
  let c = ref 0 in
  Array.iter
    (fun k -> match k with Gate.Input -> () | _ -> incr c)
    t.kinds;
  !c

(** Timing slack of every node: how many extra levels the node's path could
    absorb without increasing the circuit depth.  Dangling nodes get
    [max_int]. *)
let slacks t =
  let n = num_nodes t in
  let lev = levels t in
  let d = depth t in
  (* required time: latest level at which the node may settle while keeping
     depth [d] *)
  let req = Array.make n max_int in
  Array.iter (fun o -> req.(o) <- d) t.outputs;
  for i = n - 1 downto 0 do
    if req.(i) < max_int then begin
      let cost =
        match t.kinds.(i) with
        | Gate.Buf | Gate.Not | Gate.Input | Gate.Const0 | Gate.Const1 -> 0
        | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor
        | Gate.Mux ->
          1
      in
      Array.iter
        (fun f ->
          let r = req.(i) - cost in
          if r < req.(f) then req.(f) <- r)
        t.fanins.(i)
    end
  done;
  Array.init n (fun i ->
      if req.(i) = max_int then max_int else req.(i) - lev.(i))

(** Structural sanity check; raises [Invalid] on malformed netlists. *)
let validate t =
  let n = num_nodes t in
  for i = 0 to n - 1 do
    let fan = t.fanins.(i) in
    if not (Gate.arity_ok t.kinds.(i) (Array.length fan)) then
      invalidf "node %d: bad arity" i;
    Array.iter
      (fun f -> if f < 0 || f >= i then invalidf "node %d: fanin %d" i f)
      fan
  done;
  Array.iter
    (fun o -> if o < 0 || o >= n then invalidf "output id %d" o)
    t.outputs;
  Array.iteri
    (fun _ i ->
      if t.kinds.(i) <> Gate.Input then invalidf "input id %d not Input" i)
    t.inputs

(** [copy_into builder t map] appends every node of [t] into [builder],
    rewriting fanins through [map] (which must already contain the images of
    all [Input] nodes of [t] if [map_inputs] is [false]).  [node i copy]
    gives the image of logic node [i]; [copy ()] appends its plain copy, the
    default.  Returns the image array.  Node names are not copied (callers
    name what they need). *)
let copy_into ?(map_inputs = true) ?node builder t (map : int array) =
  for i = 0 to num_nodes t - 1 do
    match t.kinds.(i) with
    | Gate.Input ->
      if map_inputs then map.(i) <- Builder.add_input builder
      else if map.(i) < 0 then invalidf "copy_into: unmapped input %d" i
    | k ->
      let copy () =
        Builder.add_node builder k (Array.map (fun f -> map.(f)) t.fanins.(i))
      in
      map.(i) <- (match node with None -> copy () | Some f -> f i copy)
  done;
  map
