(** See sim.mli.  The store is a [Bytes.t] of 8 bytes per node, read and
    written with the unboxed 64-bit primitives so that neither evaluation
    nor a gate's accumulator allocates.

    A gate's kind is matched once; each arm writes its word straight into
    the store, and the associative kinds fold their fanins in [fold_and],
    [fold_or] or [fold_xor], whose accumulator stays unboxed.  No arm merges
    a computed word with a boxed one, which is what would box it. *)

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
let[@inline] word_is s n w = Int64.equal (get64 s (n lsl 3)) w
let[@inline] same_word a i b j = Int64.equal (get64 a (i lsl 3)) (get64 b (j lsl 3))
let[@inline] copy_word a i b j = set64 b (j lsl 3) (get64 a (i lsl 3))

let check_store name nl s =
  if Bytes.length s < 8 * N.num_nodes nl then
    invalid_arg (name ^ ": store smaller than the netlist")

let[@inline] get s f = unsafe_get64 s (f lsl 3)
let[@inline] put s n w = unsafe_set64 s (n lsl 3) w

(* The fault-free kernels: fold every fanin word into an unboxed
   accumulator and write [n]'s word, XORed with [inv] (0 or all ones, a
   constant: passing it allocates nothing).  Every fanin id is below the
   gate's, so within the store checked by the caller. *)
let fold_and s fan n inv =
  let acc = ref (-1L) in
  for i = 0 to Array.length fan - 1 do
    acc := Int64.logand !acc (get s (Array.unsafe_get fan i))
  done;
  put s n (Int64.logxor !acc inv)

let fold_or s fan n inv =
  let acc = ref 0L in
  for i = 0 to Array.length fan - 1 do
    acc := Int64.logor !acc (get s (Array.unsafe_get fan i))
  done;
  put s n (Int64.logxor !acc inv)

let fold_xor s fan n inv =
  let acc = ref 0L in
  for i = 0 to Array.length fan - 1 do
    acc := Int64.logxor !acc (get s (Array.unsafe_get fan i))
  done;
  put s n (Int64.logxor !acc inv)

let[@inline] mux sel a b = Int64.logor (Int64.logand (Int64.lognot sel) a) (Int64.logand sel b)

(* the gate switch: one dispatch on the kind, then the kernel for it *)
let gate nl s n =
  let fan = N.fanins nl n in
  match N.kind nl n with
  | Gate.Input -> ()
  | Gate.Const0 -> put s n 0L
  | Gate.Const1 -> put s n (-1L)
  | Gate.Buf -> put s n (get s (Array.unsafe_get fan 0))
  | Gate.Not -> put s n (Int64.lognot (get s (Array.unsafe_get fan 0)))
  | Gate.And -> fold_and s fan n 0L
  | Gate.Nand -> fold_and s fan n (-1L)
  | Gate.Or -> fold_or s fan n 0L
  | Gate.Nor -> fold_or s fan n (-1L)
  | Gate.Xor -> fold_xor s fan n 0L
  | Gate.Xnor -> fold_xor s fan n (-1L)
  | Gate.Mux ->
    put s n
      (mux (get s (Array.unsafe_get fan 0))
         (get s (Array.unsafe_get fan 1))
         (get s (Array.unsafe_get fan 2)))

(* fanin [pos] of [fan], or [fw] when [pos] = [fpos]; selected by a mask
   rather than a branch, so that the result stays unboxed *)
let[@inline] operand s fan fpos fw pos =
  let m = if pos = fpos then -1L else 0L in
  Int64.logor (Int64.logand m fw) (Int64.logand (Int64.lognot m) (get s fan.(pos)))

(* the general path, for a branch fault: fanin [fpos] reads [fw] *)
let gate_forced nl s n fpos fw =
  let fan = N.fanins nl n in
  let k = N.kind nl n in
  match k with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> gate nl s n
  | Gate.Buf -> put s n (operand s fan fpos fw 0)
  | Gate.Not -> put s n (Int64.lognot (operand s fan fpos fw 0))
  | Gate.Mux ->
    put s n
      (mux (operand s fan fpos fw 0) (operand s fan fpos fw 1) (operand s fan fpos fw 2))
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
    let acc = ref (operand s fan fpos fw 0) in
    for pos = 1 to Array.length fan - 1 do
      let o = operand s fan fpos fw pos in
      acc :=
        match k with
        | Gate.And | Gate.Nand -> Int64.logand !acc o
        | Gate.Or | Gate.Nor -> Int64.logor !acc o
        | _ -> Int64.logxor !acc o
    done;
    put s n
      (match k with Gate.Nand | Gate.Nor | Gate.Xnor -> Int64.lognot !acc | _ -> !acc)

let eval_gate nl s n fpos fw =
  check_store "Sim.eval_gate" nl s;
  if fpos < 0 then gate nl s n else gate_forced nl s n fpos fw

let eval nl s (inputs : int64 array) =
  check_store "Sim.eval" nl s;
  let ids = N.inputs nl in
  if Array.length inputs <> Array.length ids then
    invalid_arg "Sim.eval: one word per primary input required";
  for pos = 0 to Array.length ids - 1 do
    unsafe_set64 s (ids.(pos) lsl 3) inputs.(pos)
  done;
  for n = 0 to N.num_nodes nl - 1 do
    gate nl s n
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
