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
  (* per cone node, each fanin's table as word offset times two plus the
     complement bit *)
  in0 : int array;
  in1 : int array;
  (* slot-major truth-table words of the cone, then the ISOP's frames *)
  isop : Isop.scratch;
  mutable truth_words : int;  (* cone table words computed *)
}

let scratch (aig : Aig.t) ~cut_size =
  let n = Aig.num_nodes aig in
  {
    aig;
    refs = Aig.ref_counts aig;
    stamp = 0;
    mark = Array.make n 0;
    slot = Array.make n 0;
    leaves = Array.make cut_size 0;
    num_leaves = 0;
    cone = Array.make (max_expansions + 1) 0;
    local_refs = Array.make (max_expansions + 1) 0;
    cone_size = 0;
    in0 = Array.make (max_expansions + 1) 0;
    in1 = Array.make (max_expansions + 1) 0;
    isop = Isop.scratch ();
    truth_words = 0;
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

(* Word [w] of every slot's table.  Every fanin of a cone node is a leaf
   or a cone node, so one pass in topological order fills the slots:
   leaves first (slot i = variable i), then the cone, the root last. *)
let fill_word s ~words w =
  let tt = s.isop.tt and nvars = s.num_leaves in
  for i = 0 to nvars - 1 do
    Truth.set_word tt ((i * words) + w)
      (if i < 6 then Truth.var_masks.(i)
       else if (w lsr (i - 6)) land 1 = 1 then Int64.minus_one
       else 0L)
  done;
  for j = 0 to s.cone_size - 1 do
    let e0 = s.in0.(j) and e1 = s.in1.(j) in
    Truth.set_word tt
      (((nvars + j) * words) + w)
      (Int64.logand
         (Int64.logxor (Int64.of_int (-(e0 land 1))) (Truth.word tt ((e0 lsr 1) + w)))
         (Int64.logxor (Int64.of_int (-(e1 land 1))) (Truth.word tt ((e1 lsr 1) + w))))
  done;
  s.truth_words <- s.truth_words + nvars + s.cone_size

(* Truth table of the root over the leaves, in [s.isop]'s buffer: returns
   the word offset of the root's table, or -1 once the root is seen to
   depend on [saved + 1] variables, when [|support| - 1 >= saved] skips
   the cone whatever the rest of the table.  Words 0, 1, 2, 4, ... are
   filled first: each shows some of the variables 0-5 the root depends on,
   and word [2^j] differs from word 0 only if the root depends on variable
   [6 + j], the one variable in which their patterns differ.  The other
   words are filled only for a cone these witnesses do not skip. *)
let cone_truth s ~saved =
  let nvars = s.num_leaves in
  let words = Truth.num_words nvars in
  let slots = nvars + s.cone_size in
  Isop.reserve s.isop ~keep:0 (slots * words);
  let tt = s.isop.tt in
  for i = 0 to nvars - 1 do
    s.slot.(s.leaves.(i)) <- i
  done;
  let fanin l =
    (s.slot.(Aig.node_of_lit l) * words * 2) + if Aig.is_compl l then 1 else 0
  in
  for j = 0 to s.cone_size - 1 do
    s.in0.(j) <- fanin (Aig.fanin0 s.aig s.cone.(j));
    s.in1.(j) <- fanin (Aig.fanin1 s.aig s.cone.(j))
  done;
  let root = (slots - 1) * words in
  fill_word s ~words 0;
  if words = 1 then begin
    Truth.set_word tt root (Truth.mask_last nvars (Truth.word tt root));
    root
  end
  else begin
    let witnessed = ref 0 and low = ref 0 in
    let witness_low at =
      for i = 0 to 5 do
        if !low land (1 lsl i) = 0
           && Truth.depends_on_words tt ~at ~nw:1 ~full:Int64.minus_one i then begin
          low := !low lor (1 lsl i);
          incr witnessed
        end
      done
    in
    witness_low root;
    let j = ref 0 in
    while !witnessed <= saved && 6 + !j < nvars do
      let w = 1 lsl !j in
      fill_word s ~words w;
      if Truth.word tt (root + w) <> Truth.word tt root then incr witnessed;
      if !low <> 63 then witness_low (root + w);
      incr j
    done;
    if !witnessed > saved then -1
    else begin
      for w = 3 to words - 1 do
        if w land (w - 1) <> 0 then fill_word s ~words w
      done;
      root
    end
  end

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

let check_cut_size cut_size =
  if cut_size < 2 || cut_size > Truth.max_vars then
    invalid_arg
      (Printf.sprintf "Refactor: cut_size %d is outside 2..%d" cut_size
         Truth.max_vars)

(* The cone scan behind [run] and [costed_cones].  A cone is costed only
   when its ISOP could cost fewer nodes than the cone frees.  Any exact
   cover holds a literal of every variable the function depends on, and
   [Isop.cost] is at least the literal count minus one, so
   [cost >= |support| - 1]: when that bound already reaches the saving, the
   ISOP is not computed (nor, once enough support is witnessed, the rest
   of the table).  Otherwise the ISOP is left in [s.isop] and
   [costed root at saved] is called, [at] being the root's table.  Returns
   the number of ISOPs computed and skipped. *)
let scan s ~cut_size ~min_cone costed =
  let aig = s.aig in
  let calls = ref 0 and skipped = ref 0 in
  for root = Aig.num_pis aig + 1 to Aig.num_nodes aig - 1 do
    if s.refs.(root) > 0 then begin
      grow_cut s root ~cut_size;
      let k = s.num_leaves in
      if k >= 2 && k <= cut_size then begin
        collect_cone s root;
        if s.cone_size >= min_cone then begin
          let saved = freed_nodes s root in
          let at = cone_truth s ~saved in
          if at < 0 || Truth.support_size_words s.isop.tt ~at ~nvars:k - 1 >= saved
          then incr skipped
          else begin
            incr calls;
            Isop.run s.isop ~nvars:k ~at;
            costed root at saved
          end
        end
      end
    end
  done;
  (!calls, !skipped)

(** Every cone [run] costs, in order: the root's truth table over its cut
    and the kernel's cover of it.  For differential tests. *)
let costed_cones ?(cut_size = 10) ?(min_cone = 2) (aig : Aig.t) =
  check_cut_size cut_size;
  let s = scratch aig ~cut_size in
  let cones = ref [] in
  ignore
    (scan s ~cut_size ~min_cone (fun _ at _ ->
         cones :=
           (Truth.of_words s.isop.tt ~at ~nvars:s.num_leaves, Isop.cubes s.isop)
           :: !cones));
  List.rev !cones

(** One refactoring pass.  Returns the rebuilt AIG.  A cone is rebuilt only
    when its ISOP costs fewer nodes than the cone frees.  [cut_size] must
    be in [2..Truth.max_vars]. *)
let run ?(cut_size = 10) ?(min_cone = 2) (aig : Aig.t) : Aig.t =
  check_cut_size cut_size;
  let s = scratch aig ~cut_size in
  let replacements : (int, replacement) Hashtbl.t = Hashtbl.create 64 in
  let isop_calls, isop_skipped =
    scan s ~cut_size ~min_cone (fun root _ saved ->
        if Isop.scratch_cost s.isop < saved then
          Hashtbl.replace replacements root
            { leaves = Array.sub s.leaves 0 s.num_leaves;
              cubes = Isop.cubes s.isop })
  in
  Metrics.add (Metrics.counter "synth.isop_calls") isop_calls;
  Metrics.add (Metrics.counter "synth.isop_skipped") isop_skipped;
  Metrics.add (Metrics.counter "synth.truth_words") s.truth_words;
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
