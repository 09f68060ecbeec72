(** See sim.mli.  The store is a [Bytes.t] of 8 bytes per node, read and
    written with the unboxed 64-bit primitives so that neither evaluation
    nor a gate's accumulator allocates. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type store = Bytes.t

let store nl = Bytes.make (8 * N.num_nodes nl) '\000'
let[@inline] word s n = get64 s (n lsl 3)
let[@inline] set_word s n w = set64 s (n lsl 3) w

let check_store name nl s =
  if Bytes.length s < 8 * N.num_nodes nl then
    invalid_arg (name ^ ": store smaller than the netlist")

(* fanin [pos] of [fan]; the fanin at [fpos] reads [fw] instead.  Every
   fanin id is below the gate's, so within the store checked by the caller *)
let[@inline] operand s fan fpos fw pos =
  if pos = fpos then fw else unsafe_get64 s (fan.(pos) lsl 3)

(* the gate switch: evaluate [n] over the words in [s] into [s]; writing
   rather than returning keeps the word unboxed *)
let gate nl s n fpos fw =
  let fan = N.fanins nl n in
  let w =
    match N.kind nl n with
    | Gate.Input -> unsafe_get64 s (n lsl 3)
    | Gate.Const0 -> 0L
    | Gate.Const1 -> -1L
    | Gate.Buf -> operand s fan fpos fw 0
    | Gate.Not -> Int64.lognot (operand s fan fpos fw 0)
    | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor) as k ->
      let acc = ref (match k with Gate.And | Gate.Nand -> -1L | _ -> 0L) in
      for pos = 0 to Array.length fan - 1 do
        let o = operand s fan fpos fw pos in
        acc :=
          match k with
          | Gate.And | Gate.Nand -> Int64.logand !acc o
          | Gate.Or | Gate.Nor -> Int64.logor !acc o
          | _ -> Int64.logxor !acc o
      done;
      (match k with Gate.Nand | Gate.Nor | Gate.Xnor -> Int64.lognot !acc | _ -> !acc)
    | Gate.Mux ->
      let sel = operand s fan fpos fw 0 in
      Int64.logor
        (Int64.logand (Int64.lognot sel) (operand s fan fpos fw 1))
        (Int64.logand sel (operand s fan fpos fw 2))
  in
  unsafe_set64 s (n lsl 3) w

let eval_gate nl s n fpos fw =
  check_store "Sim.eval_gate" nl s;
  gate nl s n fpos fw

let eval nl s (inputs : int64 array) =
  check_store "Sim.eval" nl s;
  let ids = N.inputs nl in
  if Array.length inputs <> Array.length ids then
    invalid_arg "Sim.eval: one word per primary input required";
  for pos = 0 to Array.length ids - 1 do
    unsafe_set64 s (ids.(pos) lsl 3) inputs.(pos)
  done;
  for n = 0 to N.num_nodes nl - 1 do
    gate nl s n (-1) 0L
  done

let eval_bools nl (assignment : bool array) : bool array =
  if Array.length assignment <> N.num_inputs nl then
    invalid_arg "Sim.eval_bools: wrong input count";
  let s = store nl in
  eval nl s (Array.map (fun b -> if b then -1L else 0L) assignment);
  Array.map (fun o -> Int64.logand (word s o) 1L <> 0L) (N.outputs nl)

let popcount64 (x : int64) =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)
