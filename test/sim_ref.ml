(** Reference word simulation: [Orap_sim.Sim.eval] as it stood before it
    ran a per-netlist schedule, kept only for the differential properties
    in [test_sim.ml].  One ascending sweep over the node ids, one dispatch
    per gate on its kind; node ids are topological, so every fanin's word
    is ready when its reader is reached.  Do not optimise this file: its
    value is that it is the old, obviously exact sweep. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

let fold op init (w : int64 array) fan =
  Array.fold_left (fun acc f -> op acc w.(f)) init fan

let mux sel a b = Int64.logor (Int64.logand (Int64.lognot sel) a) (Int64.logand sel b)

(** Every node's word: [inputs.(i)] for the [i]-th primary input, each
    gate's value over them for the rest, indexed by node id. *)
let eval nl (inputs : int64 array) : int64 array =
  let w = Array.make (N.num_nodes nl) 0L in
  Array.iteri (fun pos id -> w.(id) <- inputs.(pos)) (N.inputs nl);
  for n = 0 to N.num_nodes nl - 1 do
    let fan = N.fanins nl n in
    match N.kind nl n with
    | Gate.Input -> ()
    | Gate.Const0 -> w.(n) <- 0L
    | Gate.Const1 -> w.(n) <- -1L
    | Gate.Buf -> w.(n) <- w.(fan.(0))
    | Gate.Not -> w.(n) <- Int64.lognot w.(fan.(0))
    | Gate.And -> w.(n) <- fold Int64.logand (-1L) w fan
    | Gate.Nand -> w.(n) <- Int64.lognot (fold Int64.logand (-1L) w fan)
    | Gate.Or -> w.(n) <- fold Int64.logor 0L w fan
    | Gate.Nor -> w.(n) <- Int64.lognot (fold Int64.logor 0L w fan)
    | Gate.Xor -> w.(n) <- fold Int64.logxor 0L w fan
    | Gate.Xnor -> w.(n) <- Int64.lognot (fold Int64.logxor 0L w fan)
    | Gate.Mux -> w.(n) <- mux w.(fan.(0)) w.(fan.(1)) w.(fan.(2))
  done;
  w
