(** And-Inverter Graph with structural hashing (the "strash" form).

    Literals follow the AIGER convention: node id [n] yields literals [2n]
    (plain) and [2n+1] (complemented); node 0 is the constant, so literal 0 is
    FALSE and literal 1 is TRUE.  The graph is append-only; nodes 1..num_pis
    are the primary inputs. *)

type t = {
  mutable fanin0 : int array;  (* literal *)
  mutable fanin1 : int array;  (* literal *)
  mutable num_nodes : int;  (* includes const node 0 and PIs *)
  num_pis : int;
  mutable outputs : int array;  (* output literals *)
  (* the strash: open addressing with linear probing over a power-of-two
     table, key [(f0 lsl 31) lor f1] of the canonical pair [f0 < f1] (never
     0, since [f0 >= 2]), 0 marking a free slot; [ids] holds the node id *)
  mutable keys : int array;
  mutable ids : int array;
  mutable shift : int;  (* 63 - log2 (Array.length keys) *)
}

(* literals must fit in the 31 bits of a strash key *)
let max_nodes = 1 lsl 30

let false_lit = 0
let true_lit = 1
let lit_of_node ?(compl = false) n = (2 * n) + if compl then 1 else 0
let node_of_lit l = l lsr 1
let is_compl l = l land 1 = 1
let compl_lit l = l lxor 1

let create ~num_pis =
  if num_pis < 0 || num_pis >= max_nodes then invalid_arg "Aig.create";
  let cap = max 16 (4 * (num_pis + 1)) in
  {
    fanin0 = Array.make cap 0;
    fanin1 = Array.make cap 0;
    num_nodes = num_pis + 1;
    num_pis;
    outputs = [||];
    keys = Array.make 1024 0;
    ids = Array.make 1024 0;
    shift = 63 - 10;
  }

let num_pis t = t.num_pis
let num_nodes t = t.num_nodes
let outputs t = t.outputs
let set_outputs t outs = t.outputs <- outs
let pi_lit t i =
  if i < 0 || i >= t.num_pis then invalid_arg "Aig.pi_lit";
  lit_of_node (i + 1)

let is_pi t n = n >= 1 && n <= t.num_pis
let is_and t n = n > t.num_pis && n < t.num_nodes
let is_const n = n = 0

let fanin0 t n = t.fanin0.(n)
let fanin1 t n = t.fanin1.(n)

(** Number of AND nodes: the area metric (inverters are edge attributes and
    cost nothing, matching gate counts "without inverters"). *)
let num_ands t = t.num_nodes - t.num_pis - 1

let ensure t =
  if t.num_nodes = Array.length t.fanin0 then begin
    let n = 2 * t.num_nodes in
    let f0 = Array.make n 0 and f1 = Array.make n 0 in
    Array.blit t.fanin0 0 f0 0 t.num_nodes;
    Array.blit t.fanin1 0 f1 0 t.num_nodes;
    t.fanin0 <- f0;
    t.fanin1 <- f1
  end

(* the slot holding [key], or the free slot where it belongs *)
let slot t key =
  let mask = Array.length t.keys - 1 in
  let rec probe i =
    let k = t.keys.(i) in
    if k = key || k = 0 then i else probe ((i + 1) land mask)
  in
  probe ((key * 0x1E3779B97F4A7C15) lsr t.shift)

(* doubles the strash table, reinserting every key *)
let grow_strash t =
  let keys = t.keys and ids = t.ids in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n 0;
  t.ids <- Array.make n 0;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i key ->
      if key <> 0 then begin
        let j = slot t key in
        t.keys.(j) <- key;
        t.ids.(j) <- ids.(i)
      end)
    keys

(** Hashed AND constructor with constant/trivial simplification. *)
let and_lit t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = false_lit then false_lit
  else if a = true_lit then b
  else if a = b then a
  else if a = compl_lit b then false_lit
  else begin
    let key = (a lsl 31) lor b in
    let i = slot t key in
    if t.keys.(i) = key then lit_of_node t.ids.(i)
    else begin
      let n = t.num_nodes in
      if n = max_nodes then invalid_arg "Aig.and_lit: more than 2^30 nodes";
      ensure t;
      t.fanin0.(n) <- a;
      t.fanin1.(n) <- b;
      t.num_nodes <- n + 1;
      t.keys.(i) <- key;
      t.ids.(i) <- n;
      (* at most half full *)
      if 2 * (n - t.num_pis) > Array.length t.keys then grow_strash t;
      lit_of_node n
    end
  end

let or_lit t a b = compl_lit (and_lit t (compl_lit a) (compl_lit b))

let xor_lit t a b =
  let n1 = and_lit t a (compl_lit b) in
  let n2 = and_lit t (compl_lit a) b in
  or_lit t n1 n2

let mux_lit t ~sel ~a ~b =
  (* sel = 0 -> a, sel = 1 -> b *)
  or_lit t (and_lit t (compl_lit sel) a) (and_lit t sel b)

(** Balanced associative reduction of a literal list. *)
let reduce_balanced t op neutral lits =
  match lits with
  | [] -> neutral
  | _ ->
    let rec level = function
      | [] -> []
      | [ x ] -> [ x ]
      | x :: y :: rest -> op t x y :: level rest
    in
    let rec go = function [ x ] -> x | xs -> go (level xs) in
    go lits

let and_list t lits = reduce_balanced t and_lit true_lit lits
let or_list t lits = reduce_balanced t or_lit false_lit lits
let xor_list t lits = reduce_balanced t xor_lit false_lit lits

(** AND-level of every node (PIs and const at level 0). *)
let levels t =
  let lev = Array.make t.num_nodes 0 in
  for n = t.num_pis + 1 to t.num_nodes - 1 do
    lev.(n) <-
      1 + max lev.(node_of_lit t.fanin0.(n)) lev.(node_of_lit t.fanin1.(n))
  done;
  lev

let depth t =
  let lev = levels t in
  Array.fold_left (fun acc o -> max acc lev.(node_of_lit o)) 0 t.outputs

(** Fanout reference counts induced by AND nodes and outputs. *)
let ref_counts t =
  let refs = Array.make t.num_nodes 0 in
  for n = t.num_pis + 1 to t.num_nodes - 1 do
    refs.(node_of_lit t.fanin0.(n)) <- refs.(node_of_lit t.fanin0.(n)) + 1;
    refs.(node_of_lit t.fanin1.(n)) <- refs.(node_of_lit t.fanin1.(n)) + 1
  done;
  Array.iter (fun o -> refs.(node_of_lit o) <- refs.(node_of_lit o) + 1) t.outputs;
  refs

(** Count of AND nodes reachable from the outputs (dead nodes excluded). *)
let num_live_ands t =
  let seen = Array.make t.num_nodes false in
  let count = ref 0 in
  let rec visit n =
    if (not seen.(n)) && is_and t n then begin
      seen.(n) <- true;
      incr count;
      visit (node_of_lit t.fanin0.(n));
      visit (node_of_lit t.fanin1.(n))
    end
  in
  Array.iter (fun o -> visit (node_of_lit o)) t.outputs;
  !count

(* ---- netlist bridges ---- *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

let of_netlist (nl : N.t) : t =
  let t = create ~num_pis:(N.num_inputs nl) in
  let lit = Array.make (N.num_nodes nl) 0 in
  let input_pos = ref 0 in
  for i = 0 to N.num_nodes nl - 1 do
    let fan () = Array.to_list (Array.map (fun f -> lit.(f)) (N.fanins nl i)) in
    lit.(i) <-
      (match N.kind nl i with
      | Gate.Input ->
        let l = pi_lit t !input_pos in
        incr input_pos;
        l
      | Gate.Const0 -> false_lit
      | Gate.Const1 -> true_lit
      | Gate.Buf -> List.nth (fan ()) 0
      | Gate.Not -> compl_lit (List.nth (fan ()) 0)
      | Gate.And -> and_list t (fan ())
      | Gate.Nand -> compl_lit (and_list t (fan ()))
      | Gate.Or -> or_list t (fan ())
      | Gate.Nor -> compl_lit (or_list t (fan ()))
      | Gate.Xor -> xor_list t (fan ())
      | Gate.Xnor -> compl_lit (xor_list t (fan ()))
      | Gate.Mux ->
        (match fan () with
        | [ sel; a; b ] -> mux_lit t ~sel ~a ~b
        | _ -> assert false))
  done;
  set_outputs t (Array.map (fun o -> lit.(o)) (N.outputs nl));
  t

(** Rebuild a gate netlist: one AND gate per live AND node, complemented edges
    become NOT gates (shared per node). *)
let to_netlist (t : t) : N.t =
  let b = N.Builder.create ~size_hint:t.num_nodes () in
  let node_id = Array.make t.num_nodes (-1) in
  let not_id = Array.make t.num_nodes (-1) in
  let const0 = ref (-1) in
  for i = 0 to t.num_pis - 1 do
    node_id.(i + 1) <- N.Builder.add_input ~name:(Printf.sprintf "pi%d" i) b
  done;
  let get_const0 () =
    if !const0 < 0 then const0 := N.Builder.add_node b Gate.Const0 [||];
    !const0
  in
  let rec id_of_lit l =
    let n = node_of_lit l in
    let plain =
      if is_const n then get_const0 ()
      else begin
        if node_id.(n) < 0 then begin
          let a = id_of_lit t.fanin0.(n) in
          let c = id_of_lit t.fanin1.(n) in
          node_id.(n) <- N.Builder.add_node b Gate.And [| a; c |]
        end;
        node_id.(n)
      end
    in
    if is_compl l then begin
      if not_id.(n) < 0 then
        not_id.(n) <- N.Builder.add_node b Gate.Not [| plain |];
      not_id.(n)
    end
    else plain
  in
  Array.iter (fun o -> N.Builder.mark_output b (id_of_lit o)) t.outputs;
  N.Builder.finish b
