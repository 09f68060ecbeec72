(** See shrink.mli. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Bench_format = Orap_netlist.Bench_format

(* mutable working copy of a netlist's structure *)
type snapshot = {
  kinds : Gate.kind array;
  fanins : int array array;
  outputs : int array;
}

let decompose nl =
  let n = N.num_nodes nl in
  {
    kinds = Array.init n (N.kind nl);
    fanins = Array.init n (fun i -> Array.copy (N.fanins nl i));
    outputs = Array.copy (N.outputs nl);
  }

(* rebuild a netlist, garbage-collecting nodes no longer reachable from the
   outputs; inputs are always kept so the interface never changes *)
let realize (s : snapshot) : N.t option =
  let n = Array.length s.kinds in
  let live = Array.make n false in
  let rec visit i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter visit s.fanins.(i)
    end
  in
  Array.iter visit s.outputs;
  match
    let b = N.Builder.create ~size_hint:n () in
    let map = Array.make n (-1) in
    for i = 0 to n - 1 do
      match s.kinds.(i) with
      | Gate.Input -> map.(i) <- N.Builder.add_input b
      | k ->
        if live.(i) then
          map.(i) <- N.Builder.add_node b k (Array.map (fun f -> map.(f)) s.fanins.(i))
    done;
    Array.iter (fun o -> N.Builder.mark_output b map.(o)) s.outputs;
    N.Builder.finish b
  with
  | nl -> Some nl
  | exception N.Invalid _ -> None

type candidate =
  | Drop_output of int  (** output position *)
  | Subst of int * int  (** rewire readers of node to an (earlier) node *)
  | Subst_const of int * bool  (** turn the node itself into a constant *)
  | Drop_fanin of int * int  (** node, fanin position (associative gates) *)

let apply (s : snapshot) = function
  | Drop_output pos ->
    if Array.length s.outputs <= 1 then None
    else
      Some
        {
          s with
          outputs =
            Array.of_list
              (List.filteri (fun i _ -> i <> pos) (Array.to_list s.outputs));
        }
  | Subst (node, target) ->
    if target >= node then None
    else
      Some
        {
          s with
          fanins =
            Array.map
              (Array.map (fun f -> if f = node then target else f))
              s.fanins;
          outputs =
            Array.map (fun o -> if o = node then target else o) s.outputs;
        }
  | Subst_const (node, v) ->
    if s.kinds.(node) = Gate.Input then None
    else begin
      let kinds = Array.copy s.kinds in
      let fanins = Array.copy s.fanins in
      kinds.(node) <- (if v then Gate.Const1 else Gate.Const0);
      fanins.(node) <- [||];
      Some { s with kinds; fanins }
    end
  | Drop_fanin (node, pos) ->
    let fan = s.fanins.(node) in
    let width = Array.length fan in
    if (not (Gate.arity_ok s.kinds.(node) (width - 1))) || width <= 1 then None
    else begin
      let fanins = Array.copy s.fanins in
      fanins.(node) <-
        Array.of_list (List.filteri (fun i _ -> i <> pos) (Array.to_list fan));
      Some { s with fanins }
    end

(* high node ids first: substituting near the outputs severs whole cones *)
let candidates (s : snapshot) : candidate list =
  let n = Array.length s.kinds in
  let acc = ref [] in
  for i = 0 to n - 1 do
    if s.kinds.(i) <> Gate.Input then begin
      acc := Subst_const (i, false) :: Subst_const (i, true) :: !acc;
      let fan = s.fanins.(i) in
      Array.iter (fun f -> acc := Subst (i, f) :: !acc) fan;
      for p = 0 to Array.length fan - 1 do
        acc := Drop_fanin (i, p) :: !acc
      done
    end
  done;
  let outs =
    List.init (Array.length s.outputs) (fun pos -> Drop_output pos)
  in
  outs @ List.rev !acc

(* strictly decreasing non-negative metric => the greedy loop terminates *)
let metric nl =
  let edges = ref 0 in
  for i = 0 to N.num_nodes nl - 1 do
    edges := !edges + Array.length (N.fanins nl i)
  done;
  (10 * N.node_count nl) + !edges + (5 * N.num_outputs nl)

(* candidate checks before the shrink gives up *)
let max_checks = 4000

let shrink (fails : N.t -> bool) (nl : N.t) : N.t =
  let still_fails candidate_nl = try fails candidate_nl with _ -> false in
  let checks = ref 0 in
  let best_nl = ref nl in
  let best = ref (decompose nl) in
  let improved = ref true in
  while !improved && !checks < max_checks do
    improved := false;
    let cands = candidates !best in
    let rec try_cands = function
      | [] -> ()
      | c :: rest ->
        if !checks >= max_checks then ()
        else begin
          (match apply !best c with
          | None -> ()
          | Some s' -> (
            match realize s' with
            | None -> ()
            | Some nl' ->
              if metric nl' < metric !best_nl then begin
                incr checks;
                if still_fails nl' then begin
                  best := decompose nl';
                  best_nl := nl';
                  improved := true
                end
              end));
          if !improved then () else try_cands rest
        end
    in
    try_cands cands
  done;
  !best_nl

let report nl =
  Printf.sprintf
    "%d inputs, %d outputs, %d gates (%d nodes incl. inverters)\n%s"
    (N.num_inputs nl) (N.num_outputs nl) (N.gate_count nl) (N.node_count nl)
    (Bench_format.print nl)
