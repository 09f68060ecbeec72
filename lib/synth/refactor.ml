(** Cut-based AIG refactoring (the ABC [refactor]/[rewrite] family).

    For every live AND node, a reconvergence-driven cut of at most [cut_size]
    leaves is grown, the cone's truth table is computed, and an ISOP rebuild
    is costed against the cone's maximum fanout-free region.  Beneficial
    replacements are recorded and a fresh structurally hashed AIG is rebuilt
    from the outputs, realising the gains (plus any sharing strash finds). *)

module Metrics = Orap_telemetry.Metrics

type replacement = { leaves : int array (* node ids *); cubes : Isop.cube list }

let max_expansions = 200

(* Scratch state of one pass, allocated once and reused for every root.
   A node's mark names the root it was set for (the stamp advances per
   root), so nothing is cleared between roots. *)
type scratch = {
  aig : Aig.t;
  refs : int array;
  mutable stamp : int;
  mark : int array;  (* [leaf_tag] or [cone_tag] of the current root *)
  slot : int array;  (* truth-table slot of a leaf or cone node *)
  leaves : int array;  (* the cut, oldest leaf first *)
  mutable num_leaves : int;
  (* the cone's AND nodes, fanins before fanouts; every one but the root was
     expanded as a leaf, so there are at most [max_expansions + 1] *)
  cone : int array;
  local_refs : int array;  (* their ref counts while [freed_nodes] runs *)
  mutable cone_size : int;
  mutable tables : Bytes.t;  (* slot-major truth-table words *)
}

let scratch (aig : Aig.t) ~cut_size =
  let n = Aig.num_nodes aig in
  {
    aig;
    refs = Aig.ref_counts aig;
    stamp = 0;
    mark = Array.make n 0;
    slot = Array.make n 0;
    leaves = Array.make (max 2 cut_size) 0;
    num_leaves = 0;
    cone = Array.make (max_expansions + 1) 0;
    local_refs = Array.make (max_expansions + 1) 0;
    cone_size = 0;
    tables = Bytes.create 0;
  }

let leaf_tag s = 2 * s.stamp
let cone_tag s = (2 * s.stamp) + 1

let fanin_node0 aig n = Aig.node_of_lit (Aig.fanin0 aig n)
let fanin_node1 aig n = Aig.node_of_lit (Aig.fanin1 aig n)
let is_leaf s n = s.mark.(n) = leaf_tag s

let add_leaf s n =
  if not (is_leaf s n) then begin
    s.mark.(n) <- leaf_tag s;
    s.leaves.(s.num_leaves) <- n;
    s.num_leaves <- s.num_leaves + 1
  end

(* drop the leaf at index [i], keeping the others in order *)
let remove_leaf s i =
  s.mark.(s.leaves.(i)) <- 0;
  Array.blit s.leaves (i + 1) s.leaves i (s.num_leaves - i - 1);
  s.num_leaves <- s.num_leaves - 1

(* Starts a new root: advancing the stamp drops every mark of the last one.
   Leaves are node ids; expansion replaces an AND leaf by its fanins, which
   join as the newest leaves.  Leaf i becomes truth-table variable i, so the
   order (oldest first) fixes the cube order and the rebuilt structure. *)
let grow_cut s root ~cut_size =
  let aig = s.aig in
  s.stamp <- s.stamp + 1;
  s.num_leaves <- 0;
  add_leaf s (fanin_node0 aig root);
  add_leaf s (fanin_node1 aig root);
  let rec expand expansions =
    if expansions < max_expansions then begin
      (* candidate leaf: an AND node whose expansion keeps the leaf budget;
         prefer the one adding the fewest new leaves (reconvergence first),
         the newest such leaf on a tie *)
      let best = ref (-1) and best_added = ref max_int in
      let i = ref (s.num_leaves - 1) in
      while !i >= 0 && !best_added > 0 do
        let l = s.leaves.(!i) in
        if Aig.is_and aig l then begin
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

(* AND nodes strictly inside the cone (root included, leaves excluded), in
   topological order; each gets its truth-table slot after the leaves' and
   its ref count copied for [freed_nodes] *)
let collect_cone s root =
  s.cone_size <- 0;
  let rec visit n =
    if s.mark.(n) <> cone_tag s && (not (is_leaf s n)) && Aig.is_and s.aig n
    then begin
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

(* Truth table of the root over the leaves.  Every fanin of a cone node is
   a leaf or a cone node, so one pass in topological order fills the slots:
   leaves first (slot i = variable i), then the cone, the root last. *)
let cone_truth s =
  let nvars = s.num_leaves in
  let words = Truth.num_words nvars in
  let slots = nvars + s.cone_size in
  if Bytes.length s.tables < slots * words * 8 then
    s.tables <- Bytes.create (slots * words * 8);
  let tt = s.tables in
  let word slot w = Bytes.get_int64_ne tt (((slot * words) + w) * 8) in
  for i = 0 to nvars - 1 do
    s.slot.(s.leaves.(i)) <- i;
    for w = 0 to words - 1 do
      let v =
        if i < 6 then Truth.var_masks.(i)
        else if (w lsr (i - 6)) land 1 = 1 then Int64.minus_one
        else 0L
      in
      Bytes.set_int64_ne tt (((i * words) + w) * 8) v
    done
  done;
  for j = 0 to s.cone_size - 1 do
    let n = s.cone.(j) and slot = nvars + j in
    let l0 = Aig.fanin0 s.aig n and l1 = Aig.fanin1 s.aig n in
    let s0 = s.slot.(Aig.node_of_lit l0) and s1 = s.slot.(Aig.node_of_lit l1) in
    let c0 = if Aig.is_compl l0 then Int64.minus_one else 0L in
    let c1 = if Aig.is_compl l1 then Int64.minus_one else 0L in
    for w = 0 to words - 1 do
      Bytes.set_int64_ne tt
        (((slot * words) + w) * 8)
        (Int64.logand
           (Int64.logxor c0 (word s0 w))
           (Int64.logxor c1 (word s1 w)))
    done
  done;
  let root = slots - 1 in
  { Truth.nvars; words = Array.init words (fun w -> Truth.mask_last nvars (word root w)) }

(* nodes of the cone freed if the root is re-expressed over the leaves:
   ref-count decrement simulation confined to the cone *)
let freed_nodes s root =
  let count = ref 0 in
  let rec deref n =
    incr count;
    release (Aig.fanin0 s.aig n);
    release (Aig.fanin1 s.aig n)
  and release l =
    let c = Aig.node_of_lit l in
    if s.mark.(c) = cone_tag s then begin
      let j = s.slot.(c) - s.num_leaves in
      let v = s.local_refs.(j) - 1 in
      s.local_refs.(j) <- v;
      if v = 0 then deref c
    end
  in
  deref root;
  !count

(** One refactoring pass.  Returns the rebuilt AIG.

    A cone is rebuilt only when its ISOP costs fewer nodes than the cone
    frees.  Any exact cover holds a literal of every variable the function
    depends on, and [Isop.cost] is at least the literal count minus one, so
    [cost >= |support| - 1]: when that bound already reaches the saving, the
    ISOP is not computed.  The skip never changes the result. *)
let run ?(cut_size = 10) ?(min_cone = 2) (aig : Aig.t) : Aig.t =
  let s = scratch aig ~cut_size in
  let replacements : (int, replacement) Hashtbl.t = Hashtbl.create 64 in
  let isop_calls = ref 0 and isop_skipped = ref 0 in
  for root = Aig.num_pis aig + 1 to Aig.num_nodes aig - 1 do
    if s.refs.(root) > 0 then begin
      grow_cut s root ~cut_size;
      let k = s.num_leaves in
      if k >= 2 && k <= cut_size then begin
        collect_cone s root;
        if s.cone_size >= min_cone then begin
          let truth = cone_truth s in
          let saved = freed_nodes s root in
          if Truth.support_size truth - 1 >= saved then incr isop_skipped
          else begin
            incr isop_calls;
            let cubes = Isop.compute truth in
            if Isop.cost cubes < saved then
              Hashtbl.replace replacements root
                { leaves = Array.sub s.leaves 0 k; cubes }
          end
        end
      end
    end
  done;
  Metrics.add (Metrics.counter "synth.isop_calls") !isop_calls;
  Metrics.add (Metrics.counter "synth.isop_skipped") !isop_skipped;
  (* rebuild demand-driven from the outputs *)
  let fresh = Aig.create ~num_pis:(Aig.num_pis aig) in
  let memo = Array.make (Aig.num_nodes aig) (-1) in
  let rec lit_image l =
    let n = Aig.node_of_lit l in
    let plain = node_image n in
    if Aig.is_compl l then Aig.compl_lit plain else plain
  and node_image n =
    if memo.(n) >= 0 then memo.(n)
    else begin
      let lit =
        if Aig.is_const n then Aig.false_lit
        else if Aig.is_pi aig n then Aig.pi_lit fresh (n - 1)
        else
          match Hashtbl.find_opt replacements n with
          | Some { leaves; cubes } ->
            let leaf_lits = Array.map (fun l -> node_image l) leaves in
            Isop.to_aig fresh leaf_lits cubes
          | None ->
            Aig.and_lit fresh
              (lit_image (Aig.fanin0 aig n))
              (lit_image (Aig.fanin1 aig n))
      in
      memo.(n) <- lit;
      lit
    end
  in
  Aig.set_outputs fresh (Array.map lit_image (Aig.outputs aig));
  fresh
