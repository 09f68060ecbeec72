(** Gate-level combinational netlist.

    Nodes are identified by dense integer ids and stored in topological order
    by construction: a node's fanins must already exist when the node is
    added.  Every analysis over the netlist is therefore a single forward (or
    backward) array sweep. *)

type t = {
  kinds : Gate.kind array;
  fanins : int array array;
  inputs : int array;  (** ids of [Input] nodes, in declaration order *)
  outputs : int array;  (** ids of nodes exposed as primary outputs *)
  names : (int, string) Hashtbl.t;
  ids : (string, int) Hashtbl.t;
}

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
    }
end

(** Fanout adjacency: [fanouts t].(i) lists the node ids reading node [i].
    Output markings are not included. *)
let fanouts t =
  let n = num_nodes t in
  let counts = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.iter (fun f -> counts.(f) <- counts.(f) + 1) t.fanins.(i)
  done;
  let out = Array.init n (fun i -> Array.make counts.(i) 0) in
  let fill = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun f ->
        out.(f).(fill.(f)) <- i;
        fill.(f) <- fill.(f) + 1)
      t.fanins.(i)
  done;
  out

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
