(** See gen.mli. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng
module Benchgen = Orap_benchgen.Benchgen

type 'a t = Prng.t -> 'a

let map f g rng = f (g rng)
let bind g f rng = f (g rng) rng
let pair a b rng =
  let x = a rng in
  let y = b rng in
  (x, y)

let bool rng = Prng.bool rng

let int_range lo hi rng =
  if lo > hi then invalid_arg "Gen.int_range";
  lo + Prng.int rng (hi - lo + 1)

let oneof arr rng =
  if Array.length arr = 0 then invalid_arg "Gen.oneof";
  arr.(Prng.int rng (Array.length arr))

let list_of len g rng =
  let n = len rng in
  List.init n (fun _ -> g rng)

(* --- netlists --- *)

type netlist_params = {
  inputs : int * int;
  outputs : int * int;
  gates : int * int;
  max_fanin : int;
  max_fanout : int;
  kinds : Gate.kind array;
  locality : int;
}

(* weighted multiset: associative gates dominate, Mux and inverter-likes
   frequent enough to exercise every eval/encode path, constants rare *)
let full_kinds =
  [|
    Gate.And; Gate.And; Gate.And; Gate.Nand; Gate.Nand; Gate.Nand;
    Gate.Or; Gate.Or; Gate.Nor; Gate.Nor; Gate.Xor; Gate.Xor; Gate.Xnor;
    Gate.Not; Gate.Not; Gate.Buf; Gate.Mux; Gate.Mux;
    Gate.Const0; Gate.Const1;
  |]

let default_params =
  {
    inputs = (4, 8);
    outputs = (2, 5);
    gates = (15, 60);
    max_fanin = 4;
    max_fanout = 6;
    kinds = full_kinds;
    locality = 25;
  }

let tiny_params =
  { default_params with inputs = (2, 5); outputs = (1, 3); gates = (3, 18) }

let netlist ?(params = default_params) () rng =
  let lo_i, hi_i = params.inputs in
  let ni = int_range (max 1 lo_i) hi_i rng in
  let no = int_range (max 1 (fst params.outputs)) (snd params.outputs) rng in
  let ng = int_range (max 1 (fst params.gates)) (snd params.gates) rng in
  let b = N.Builder.create ~size_hint:(ni + ng + 2) () in
  for _ = 1 to ni do
    ignore (N.Builder.add_input b)
  done;
  (* reader counts, for the soft fanout cap *)
  let fanout = ref (Array.make (ni + ng + 2) 0) in
  let ensure_capacity len =
    if len > Array.length !fanout then begin
      let bigger = Array.make (2 * len) 0 in
      Array.blit !fanout 0 bigger 0 (Array.length !fanout);
      fanout := bigger
    end
  in
  let pick_fanin () =
    let len = N.Builder.length b in
    let candidate () =
      if Prng.int rng 100 < params.locality then
        len - 1 - Prng.int rng (min len 16)
      else Prng.int rng len
    in
    if params.max_fanout <= 0 then candidate ()
    else begin
      (* a few redraws steer away from saturated nodes without ever failing *)
      let rec attempt k =
        let c = candidate () in
        if k = 0 || !fanout.(c) < params.max_fanout then c
        else attempt (k - 1)
      in
      attempt 3
    end
  in
  for _ = 1 to ng do
    let kind = oneof params.kinds rng in
    let arity =
      match Gate.arity kind with
      | `Exactly n -> n
      | `At_least n ->
        let extra =
          match Prng.int rng 10 with
          | 0 -> 2
          | 1 | 2 | 3 -> 1
          | _ -> 0
        in
        min params.max_fanin (max n (1 + extra))
    in
    let fan = Array.init arity (fun _ -> pick_fanin ()) in
    (* avoid the x-op-x degeneracy for binary gates (it collapses XOR/XNOR
       to constants and hides real gate behaviour) *)
    if arity = 2 && fan.(0) = fan.(1) then
      fan.(1) <- (fan.(0) + 1) mod N.Builder.length b;
    let id = N.Builder.add_node b kind fan in
    ensure_capacity (id + 1);
    Array.iter (fun f -> !fanout.(f) <- !fanout.(f) + 1) fan
  done;
  let len = N.Builder.length b in
  (* prefer sinks as outputs (in id order, deterministically), then top up
     with random nodes; repetitions are legal but avoided while possible *)
  let sinks = ref [] in
  for i = len - 1 downto 0 do
    if !fanout.(i) = 0 then sinks := i :: !sinks
  done;
  let marked = Hashtbl.create 16 in
  let n_marked = ref 0 in
  let mark id =
    if !n_marked < no && not (Hashtbl.mem marked id) then begin
      Hashtbl.replace marked id ();
      N.Builder.mark_output b id;
      incr n_marked
    end
  in
  List.iter mark !sinks;
  let guard = ref (8 * no) in
  while !n_marked < no && !guard > 0 do
    decr guard;
    mark (Prng.int rng len)
  done;
  (* tiny circuits can exhaust distinct nodes: repeat the last sink *)
  while !n_marked < no do
    N.Builder.mark_output b (len - 1);
    incr n_marked
  done;
  N.Builder.finish b

let benchgen_netlist ~inputs ~outputs ~gates rng =
  Benchgen.generate
    {
      Benchgen.seed = Prng.int rng 0x3FFFFFFF;
      num_inputs = inputs;
      num_outputs = outputs;
      num_gates = gates;
    }

let wide_netlist rng =
  let b = N.Builder.create () in
  for _ = 1 to int_range 3 7 rng do
    ignore (N.Builder.add_input b)
  done;
  let kinds =
    Gate.[| And; Nand; Or; Nor; Xor; Xnor; Mux; Mux; Buf; Not; Const0; Const1 |]
  in
  for _ = 1 to int_range 10 50 rng do
    let kind = oneof kinds rng in
    let len = N.Builder.length b in
    let arity =
      match Gate.arity kind with
      | `Exactly a -> a
      | `At_least a -> int_range a 6 rng
    in
    let pick () =
      if Prng.int rng 4 = 0 then Prng.int rng len else len - 1 - Prng.int rng (min len 4)
    in
    ignore (N.Builder.add_node b kind (Array.init arity (fun _ -> pick ())))
  done;
  let len = N.Builder.length b in
  N.Builder.mark_output b (len - 1);
  for _ = 1 to int_range 0 3 rng do
    N.Builder.mark_output b (Prng.int rng len)
  done;
  N.Builder.finish b

(* --- mutation --- *)

let dual = function
  | Gate.And -> Some Gate.Nand
  | Gate.Nand -> Some Gate.And
  | Gate.Or -> Some Gate.Nor
  | Gate.Nor -> Some Gate.Or
  | Gate.Xor -> Some Gate.Xnor
  | Gate.Xnor -> Some Gate.Xor
  | Gate.Buf -> Some Gate.Not
  | Gate.Not -> Some Gate.Buf
  | Gate.Const0 -> Some Gate.Const1
  | Gate.Const1 -> Some Gate.Const0
  | Gate.Mux | Gate.Input -> None

let mutant nl rng =
  let n = N.num_nodes nl in
  let logic =
    Array.of_list
      (List.filter
         (fun i -> N.kind nl i <> Gate.Input)
         (List.init n (fun i -> i)))
  in
  let target =
    if Array.length logic = 0 then -1 else oneof logic rng
  in
  let b = N.Builder.create ~size_hint:n () in
  for i = 0 to n - 1 do
    match N.kind nl i with
    | Gate.Input -> ignore (N.Builder.add_input b)
    | k ->
      let fan = Array.copy (N.fanins nl i) in
      let k =
        if i <> target then k
        else
          match dual k with
          | Some k' -> k'
          | None ->
            (* Mux: swap the data branches (changes the function unless the
               branches happen to coincide) *)
            let a = fan.(1) in
            fan.(1) <- fan.(2);
            fan.(2) <- a;
            k
      in
      ignore (N.Builder.add_node b k fan)
  done;
  Array.iter (fun o -> N.Builder.mark_output b o) (N.outputs nl);
  N.Builder.finish b
