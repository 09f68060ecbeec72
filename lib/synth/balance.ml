(** Delay-oriented AND-tree balancing (the ABC [balance] pass).

    Multi-input conjunctions are collected by flattening non-complemented
    AND edges into single-fanout children, then rebuilt as trees that pair
    shallow operands first, minimising the resulting level. *)

let run (aig : Aig.t) : Aig.t =
  let refs = Aig.ref_counts aig in
  let fresh = Aig.create ~num_pis:(Aig.num_pis aig) in
  let memo = Array.make (Aig.num_nodes aig) (-1) in
  (* levels of the fresh AIG by node id, set as [mk_and] creates each node
     (const and PIs stay at 0).  A conjunction of m operands flattens m - 1
     source ANDs and is rebuilt with at most m - 1, so the fresh AIG never
     outgrows the source *)
  let lev = Array.make (Aig.num_nodes aig) 0 in
  let level_of l = lev.(Aig.node_of_lit l) in
  let mk_and a b =
    let n = Aig.num_nodes fresh in
    let l = Aig.and_lit fresh a b in
    if Aig.num_nodes fresh > n then lev.(n) <- 1 + max (level_of a) (level_of b);
    l
  in
  (* operands by ascending level, equal levels in arrival order; a new AND
     goes before the first operand of equal or higher level, where a stable
     re-sort of the list would put it *)
  let rec insert x lx = function
    | y :: rest when level_of y < lx -> y :: insert x lx rest
    | ys -> x :: ys
  in
  let rec lit_image l =
    let plain = node_image (Aig.node_of_lit l) in
    if Aig.is_compl l then Aig.compl_lit plain else plain
  and node_image n =
    if memo.(n) >= 0 then memo.(n)
    else begin
      let lit =
        if Aig.is_const n then Aig.false_lit
        else if Aig.is_pi aig n then Aig.pi_lit fresh (n - 1)
        else begin
          (* collect the flattened conjunction rooted at n *)
          let operands = ref [] in
          let rec collect l =
            let c = Aig.node_of_lit l in
            if
              (not (Aig.is_compl l))
              && Aig.is_and aig c
              && (refs.(c) <= 1 || c = n)
            then begin
              collect (Aig.fanin0 aig c);
              collect (Aig.fanin1 aig c)
            end
            else operands := l :: !operands
          in
          collect (Aig.fanin0 aig n);
          collect (Aig.fanin1 aig n);
          let imgs = List.map lit_image !operands in
          (* repeatedly combine the two shallowest operands *)
          let rec build = function
            | [] -> Aig.true_lit
            | [ x ] -> x
            | a :: b :: rest ->
              let x = mk_and a b in
              build (insert x (level_of x) rest)
          in
          build
            (List.stable_sort
               (fun a b -> Int.compare (level_of a) (level_of b))
               imgs)
        end
      in
      memo.(n) <- lit;
      lit
    end
  in
  Aig.set_outputs fresh (Array.map lit_image (Aig.outputs aig));
  fresh
