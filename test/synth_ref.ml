(** Reference synthesis: [Orap_synth]'s structural hashing, [Refactor.run]
    and [Balance.run] as they stood before refactoring costed cones from
    witness words, the strash moved to int arrays and balancing kept its
    levels in an array.  Kept only for the differential tests in
    [test_prop_synth.ml] and [test_synth.ml], which ask for the library's
    AIGs node for node.  The graph is its own record with a [Hashtbl]
    strash; every cone's truth table is computed in full before the support
    bound is checked; balancing re-sorts its operand list after every new
    AND.  Do not optimise this file: its value is that it is the old,
    obviously exact pipeline. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Truth = Orap_synth.Truth
module Isop = Orap_synth.Isop
module Aig = Orap_synth.Aig

(* ---- the graph: AIGER literals, node 0 the constant, 1..num_pis the PIs ---- *)

type aig = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable num_nodes : int;
  num_pis : int;
  mutable outputs : int array;
  strash : (int * int, int) Hashtbl.t;  (* (f0, f1) canonical -> node id *)
}

let node_of_lit l = l lsr 1
let is_compl l = l land 1 = 1
let compl_lit l = l lxor 1
let false_lit = 0
let true_lit = 1

let create ~num_pis =
  let cap = max 16 (4 * (num_pis + 1)) in
  { fanin0 = Array.make cap 0; fanin1 = Array.make cap 0;
    num_nodes = num_pis + 1; num_pis; outputs = [||];
    strash = Hashtbl.create 1024 }

let pi_lit _ i = 2 * (i + 1)
let is_pi t n = n >= 1 && n <= t.num_pis
let is_and t n = n > t.num_pis && n < t.num_nodes

let ensure t =
  if t.num_nodes = Array.length t.fanin0 then begin
    let n = 2 * t.num_nodes in
    let f0 = Array.make n 0 and f1 = Array.make n 0 in
    Array.blit t.fanin0 0 f0 0 t.num_nodes;
    Array.blit t.fanin1 0 f1 0 t.num_nodes;
    t.fanin0 <- f0;
    t.fanin1 <- f1
  end

let and_lit t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = false_lit then false_lit
  else if a = true_lit then b
  else if a = b then a
  else if a = compl_lit b then false_lit
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some n -> 2 * n
    | None ->
      ensure t;
      let n = t.num_nodes in
      t.fanin0.(n) <- a;
      t.fanin1.(n) <- b;
      t.num_nodes <- n + 1;
      Hashtbl.replace t.strash (a, b) n;
      2 * n

let or_lit t a b = compl_lit (and_lit t (compl_lit a) (compl_lit b))

let xor_lit t a b =
  let n1 = and_lit t a (compl_lit b) in
  let n2 = and_lit t (compl_lit a) b in
  or_lit t n1 n2

let mux_lit t ~sel ~a ~b =
  or_lit t (and_lit t (compl_lit sel) a) (and_lit t sel b)

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

let ref_counts t =
  let refs = Array.make t.num_nodes 0 in
  for n = t.num_pis + 1 to t.num_nodes - 1 do
    refs.(node_of_lit t.fanin0.(n)) <- refs.(node_of_lit t.fanin0.(n)) + 1;
    refs.(node_of_lit t.fanin1.(n)) <- refs.(node_of_lit t.fanin1.(n)) + 1
  done;
  Array.iter (fun o -> refs.(node_of_lit o) <- refs.(node_of_lit o) + 1) t.outputs;
  refs

let of_netlist (nl : N.t) : aig =
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
  t.outputs <- Array.map (fun o -> lit.(o)) (N.outputs nl);
  t

(** Does the library's [g] hold exactly [r]'s nodes, fanins and outputs? *)
let same (r : aig) (g : Aig.t) =
  r.num_pis = Aig.num_pis g
  && r.num_nodes = Aig.num_nodes g
  && r.outputs = Aig.outputs g
  &&
  let ok = ref true in
  for n = r.num_pis + 1 to r.num_nodes - 1 do
    if r.fanin0.(n) <> Aig.fanin0 g n || r.fanin1.(n) <> Aig.fanin1 g n then
      ok := false
  done;
  !ok

(* ---- refactoring ---- *)

let max_expansions = 200

type scratch = {
  aig : aig;
  refs : int array;
  mutable stamp : int;
  mark : int array;
  slot : int array;
  leaves : int array;
  mutable num_leaves : int;
  cone : int array;
  local_refs : int array;
  mutable cone_size : int;
  isop : Isop.scratch;
}

let scratch (aig : aig) ~cut_size =
  let n = aig.num_nodes in
  { aig; refs = ref_counts aig; stamp = 0; mark = Array.make n 0;
    slot = Array.make n 0; leaves = Array.make cut_size 0; num_leaves = 0;
    cone = Array.make (max_expansions + 1) 0;
    local_refs = Array.make (max_expansions + 1) 0; cone_size = 0;
    isop = Isop.scratch () }

let leaf_tag s = 2 * s.stamp
let cone_tag s = (2 * s.stamp) + 1
let fanin_node0 aig n = node_of_lit aig.fanin0.(n)
let fanin_node1 aig n = node_of_lit aig.fanin1.(n)
let is_leaf s n = s.mark.(n) = leaf_tag s

let add_leaf s n =
  if not (is_leaf s n) then begin
    s.mark.(n) <- leaf_tag s;
    s.leaves.(s.num_leaves) <- n;
    s.num_leaves <- s.num_leaves + 1
  end

let remove_leaf s i =
  s.mark.(s.leaves.(i)) <- 0;
  Array.blit s.leaves (i + 1) s.leaves i (s.num_leaves - i - 1);
  s.num_leaves <- s.num_leaves - 1

let grow_cut s root ~cut_size =
  let aig = s.aig in
  s.stamp <- s.stamp + 1;
  s.num_leaves <- 0;
  add_leaf s (fanin_node0 aig root);
  add_leaf s (fanin_node1 aig root);
  let rec expand expansions =
    if expansions < max_expansions then begin
      let best = ref (-1) and best_added = ref max_int in
      let i = ref (s.num_leaves - 1) in
      while !i >= 0 && !best_added > 0 do
        let l = s.leaves.(!i) in
        if is_and aig l then begin
          let f0 = fanin_node0 aig l and f1 = fanin_node1 aig l in
          let added =
            (if is_leaf s f0 then 0 else 1)
            + if is_leaf s f1 || f1 = f0 then 0 else 1
          in
          if s.num_leaves - 1 + added <= cut_size && added < !best_added then begin
            best := !i;
            best_added := added
          end
        end;
        decr i
      done;
      if !best >= 0 then begin
        let l = s.leaves.(!best) in
        remove_leaf s !best;
        add_leaf s (fanin_node0 aig l);
        add_leaf s (fanin_node1 aig l);
        expand (expansions + 1)
      end
    end
  in
  expand 0

let collect_cone s root =
  s.cone_size <- 0;
  let rec visit n =
    if s.mark.(n) <> cone_tag s && (not (is_leaf s n)) && is_and s.aig n then begin
      s.mark.(n) <- cone_tag s;
      visit (fanin_node0 s.aig n);
      visit (fanin_node1 s.aig n);
      s.slot.(n) <- s.num_leaves + s.cone_size;
      s.cone.(s.cone_size) <- n;
      s.local_refs.(s.cone_size) <- s.refs.(n);
      s.cone_size <- s.cone_size + 1
    end
  in
  visit root

let cone_truth s =
  let nvars = s.num_leaves in
  let words = Truth.num_words nvars in
  let slots = nvars + s.cone_size in
  Isop.reserve s.isop ~keep:0 (slots * words);
  let tt = s.isop.tt in
  for i = 0 to nvars - 1 do
    s.slot.(s.leaves.(i)) <- i;
    for w = 0 to words - 1 do
      Truth.set_word tt ((i * words) + w)
        (if i < 6 then Truth.var_masks.(i)
         else if (w lsr (i - 6)) land 1 = 1 then Int64.minus_one
         else 0L)
    done
  done;
  for j = 0 to s.cone_size - 1 do
    let n = s.cone.(j) and slot = nvars + j in
    let l0 = s.aig.fanin0.(n) and l1 = s.aig.fanin1.(n) in
    let s0 = s.slot.(node_of_lit l0) * words
    and s1 = s.slot.(node_of_lit l1) * words in
    let c0 = if is_compl l0 then Int64.minus_one else 0L in
    let c1 = if is_compl l1 then Int64.minus_one else 0L in
    for w = 0 to words - 1 do
      Truth.set_word tt
        ((slot * words) + w)
        (Int64.logand
           (Int64.logxor c0 (Truth.word tt (s0 + w)))
           (Int64.logxor c1 (Truth.word tt (s1 + w))))
    done
  done;
  let root = (slots - 1) * words in
  Truth.set_word tt root (Truth.mask_last nvars (Truth.word tt root));
  root

let freed_nodes s root =
  let count = ref 0 in
  let rec deref n =
    incr count;
    release s.aig.fanin0.(n);
    release s.aig.fanin1.(n)
  and release l =
    let c = node_of_lit l in
    if s.mark.(c) = cone_tag s then begin
      let j = s.slot.(c) - s.num_leaves in
      let v = s.local_refs.(j) - 1 in
      s.local_refs.(j) <- v;
      if v = 0 then deref c
    end
  in
  deref root;
  !count

let scan s ~cut_size ~min_cone costed =
  let aig = s.aig in
  for root = aig.num_pis + 1 to aig.num_nodes - 1 do
    if s.refs.(root) > 0 then begin
      grow_cut s root ~cut_size;
      let k = s.num_leaves in
      if k >= 2 && k <= cut_size then begin
        collect_cone s root;
        if s.cone_size >= min_cone then begin
          let at = cone_truth s in
          let saved = freed_nodes s root in
          if Truth.support_size_words s.isop.tt ~at ~nvars:k - 1 < saved then begin
            Isop.run s.isop ~nvars:k ~at;
            costed root at saved
          end
        end
      end
    end
  done

(** [Orap_synth.Refactor.costed_cones] on the reference graph. *)
let costed_cones ?(cut_size = 10) ?(min_cone = 2) (aig : aig) =
  let s = scratch aig ~cut_size in
  let cones = ref [] in
  scan s ~cut_size ~min_cone (fun _ at _ ->
      cones :=
        (Truth.of_words s.isop.tt ~at ~nvars:s.num_leaves, Isop.cubes s.isop)
        :: !cones);
  List.rev !cones

let cover_lit (aig : aig) (leaves : int array) (cubes : Isop.cube list) =
  let cube_lit (c : Isop.cube) =
    let lits = ref [] in
    Array.iteri
      (fun i l ->
        if (c.pos lsr i) land 1 = 1 then lits := l :: !lits;
        if (c.neg lsr i) land 1 = 1 then lits := compl_lit l :: !lits)
      leaves;
    and_list aig !lits
  in
  or_list aig (List.map cube_lit cubes)

let refactor ?(cut_size = 10) ?(min_cone = 2) (aig : aig) : aig =
  let s = scratch aig ~cut_size in
  let replacements : (int, int array * Isop.cube list) Hashtbl.t =
    Hashtbl.create 64
  in
  scan s ~cut_size ~min_cone (fun root _ saved ->
      if Isop.scratch_cost s.isop < saved then
        Hashtbl.replace replacements root
          (Array.sub s.leaves 0 s.num_leaves, Isop.cubes s.isop));
  let fresh = create ~num_pis:aig.num_pis in
  let memo = Array.make aig.num_nodes (-1) in
  let rec lit_image l =
    let plain = node_image (node_of_lit l) in
    if is_compl l then compl_lit plain else plain
  and node_image n =
    if memo.(n) >= 0 then memo.(n)
    else begin
      let lit =
        if n = 0 then false_lit
        else if is_pi aig n then pi_lit fresh (n - 1)
        else
          match Hashtbl.find_opt replacements n with
          | Some (leaves, cubes) ->
            cover_lit fresh (Array.map node_image leaves) cubes
          | None ->
            and_lit fresh (lit_image aig.fanin0.(n)) (lit_image aig.fanin1.(n))
      in
      memo.(n) <- lit;
      lit
    end
  in
  fresh.outputs <- Array.map lit_image aig.outputs;
  fresh

(* ---- balancing ---- *)

let balance (aig : aig) : aig =
  let refs = ref_counts aig in
  let fresh = create ~num_pis:aig.num_pis in
  let memo = Array.make aig.num_nodes (-1) in
  let lev : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let level_of l =
    match Hashtbl.find_opt lev (node_of_lit l) with Some v -> v | None -> 0
  in
  let mk_and a b =
    let l = and_lit fresh a b in
    let n = node_of_lit l in
    if is_and fresh n && not (Hashtbl.mem lev n) then
      Hashtbl.replace lev n (1 + max (level_of a) (level_of b));
    l
  in
  let rec lit_image l =
    let plain = node_image (node_of_lit l) in
    if is_compl l then compl_lit plain else plain
  and node_image n =
    if memo.(n) >= 0 then memo.(n)
    else begin
      let lit =
        if n = 0 then false_lit
        else if is_pi aig n then pi_lit fresh (n - 1)
        else begin
          let operands = ref [] in
          let rec collect l =
            let c = node_of_lit l in
            if (not (is_compl l)) && is_and aig c && (refs.(c) <= 1 || c = n)
            then begin
              collect aig.fanin0.(c);
              collect aig.fanin1.(c)
            end
            else operands := l :: !operands
          in
          collect aig.fanin0.(n);
          collect aig.fanin1.(n);
          let imgs = List.map lit_image !operands in
          let rec build xs =
            match List.sort (fun a b -> compare (level_of a) (level_of b)) xs with
            | [] -> true_lit
            | [ x ] -> x
            | a :: b :: rest -> build (mk_and a b :: rest)
          in
          build imgs
        end
      in
      memo.(n) <- lit;
      lit
    end
  in
  fresh.outputs <- Array.map lit_image aig.outputs;
  fresh

(** [Orap_synth.Abc_script.optimize] on the reference passes. *)
let optimize ?(effort = 1) (nl : N.t) : aig =
  let aig = ref (of_netlist nl) in
  for _ = 1 to effort do
    aig := refactor ~cut_size:10 ~min_cone:3 !aig;
    aig := refactor ~cut_size:4 ~min_cone:1 !aig
  done;
  balance !aig
