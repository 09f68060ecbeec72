(** Single stuck-at fault model with standard equivalence collapsing. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

type site =
  | Output of int  (** node id: fault on the node's output stem *)
  | Input of int * int  (** (node id, fanin position): fanout-branch fault *)

type t = { site : site; stuck : bool }

let compare = Stdlib.compare

let to_string (nl : N.t) f =
  let v = if f.stuck then 1 else 0 in
  match f.site with
  | Output n -> Printf.sprintf "%s/sa%d" (N.node_name nl n) v
  | Input (n, pos) -> Printf.sprintf "%s.in%d/sa%d" (N.node_name nl n) pos v

(** Collapsed fault list:
    - both stuck-at faults on every node output (stem faults);
    - branch (gate-input) faults only where the driver has fanout > 1
      (single-fanout connections are equivalent to the stem fault);
    - controlled-value branch faults folded into the gate-output fault
      (e.g. an AND input s-a-0 is equivalent to the AND output s-a-0);
    - inverter/buffer input faults folded into their output faults. *)
let collapsed_list (nl : N.t) : t array =
  (* reader entries, plus one for an output *)
  let fo = N.fanouts nl in
  let fanout_count n = fo.N.start.(n + 1) - fo.N.start.(n) + Bool.to_int fo.N.is_output.(n) in
  let acc = ref [] in
  let add f = acc := f :: !acc in
  for n = 0 to N.num_nodes nl - 1 do
    (* stem faults on every node that drives something *)
    if fanout_count n > 0 then begin
      add { site = Output n; stuck = false };
      add { site = Output n; stuck = true }
    end;
    (* branch faults *)
    let keep_branch stuck =
      match N.kind nl n with
      | Gate.And | Gate.Nand -> stuck <> false (* s-a-0 == output fault *)
      | Gate.Or | Gate.Nor -> stuck <> true
      | Gate.Not | Gate.Buf -> false
      | Gate.Xor | Gate.Xnor | Gate.Mux -> true
      | Gate.Input | Gate.Const0 | Gate.Const1 -> false
    in
    Array.iteri
      (fun pos f ->
        if fanout_count f > 1 then begin
          if keep_branch false then add { site = Input (n, pos); stuck = false };
          if keep_branch true then add { site = Input (n, pos); stuck = true }
        end)
      (N.fanins nl n)
  done;
  Array.of_list (List.rev !acc)

(** Uncollapsed count, for reporting. *)
let total_uncollapsed (nl : N.t) : int =
  let c = ref 0 in
  for n = 0 to N.num_nodes nl - 1 do
    c := !c + 2 + (2 * Array.length (N.fanins nl n))
  done;
  !c
