(** See sim.mli.  The store is a [Bytes.t] of 8 bytes per node, read and
    written with the unboxed 64-bit primitives so that neither evaluation
    nor a gate's accumulator allocates.

    [eval] matches a run's class once and loops over its gates in a
    [run_*] kernel; [eval_gate] matches one gate's kind, and the
    associative kinds fold their fanins in [fold_and], [fold_or] or
    [fold_xor].  Every accumulator stays unboxed: no arm merges a computed
    word with a boxed one, which is what would box it. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type store = Bytes.t

let words k = Bytes.make (8 * k) '\000'
let store nl = words (N.num_nodes nl)
let[@inline] word s n = get64 s (n lsl 3)
let[@inline] set_word s n w = set64 s (n lsl 3) w
let[@inline] word_is s n w = Int64.equal (get64 s (n lsl 3)) w
let[@inline] same_word a i b j = Int64.equal (get64 a (i lsl 3)) (get64 b (j lsl 3))
let[@inline] copy_word a i b j = set64 b (j lsl 3) (get64 a (i lsl 3))
let[@inline] xor_word a i w b j = set64 b (j lsl 3) (Int64.logxor (get64 a (i lsl 3)) w)
let[@inline] and_word a i b j =
  set64 b (j lsl 3) (Int64.logand (get64 b (j lsl 3)) (get64 a (i lsl 3)))

let[@inline] or_diff a i b j c k =
  set64 c (k lsl 3)
    (Int64.logor (get64 c (k lsl 3)) (Int64.logxor (get64 a (i lsl 3)) (get64 b (j lsl 3))))

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

(* AND into word [j] of [m] the lanes where every fanin of [fan] but the
   one at [pos] reads 1 ([flip] = 0) or 0 ([flip] = all ones) *)
let and_others s fan pos flip m j =
  let acc = ref (get64 m (j lsl 3)) in
  for i = 0 to Array.length fan - 1 do
    if i <> pos then
      acc := Int64.logand !acc (Int64.logxor (get s (Array.unsafe_get fan i)) flip)
  done;
  set64 m (j lsl 3) !acc

let sensitise nl s n pos m j =
  check_store "Sim.sensitise" nl s;
  let fan = N.fanins nl n in
  match N.kind nl n with
  | Gate.And | Gate.Nand -> and_others s fan pos 0L m j
  | Gate.Or | Gate.Nor -> and_others s fan pos (-1L) m j
  | Gate.Mux ->
    let sel = get s fan.(0) in
    let pass =
      if pos = 0 then Int64.logxor (get s fan.(1)) (get s fan.(2))
      else if pos = 1 then Int64.lognot sel
      else sel
    in
    set64 m (j lsl 3) (Int64.logand (get64 m (j lsl 3)) pass)
  | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> ()

let eval_gate nl s n =
  check_store "Sim.eval_gate" nl s;
  gate nl s n

(* The schedule's kernels, one per family of classes: each evaluates the
   gates at schedule positions [lo] .. [hi] - 1 of one run, XORing the
   result with [inv] (0 or all ones, a constant) where the class has an
   inverting twin.  Every id and spill index in a schedule lies within its
   netlist, whose store the caller checked. *)
module Sc = N.Schedule

let[@inline] head code p = Array.unsafe_get code (2 * p)
let[@inline] second code p = Array.unsafe_get code ((2 * p) + 1)

let run_const s code lo hi w =
  for p = lo to hi - 1 do
    put s (Sc.target (head code p)) w
  done

let run_buf s code lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    put s (Sc.target h) (Int64.logxor (get s (Sc.first h)) inv)
  done

let run_and2 s code lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    put s (Sc.target h)
      (Int64.logxor (Int64.logand (get s (Sc.first h)) (get s (second code p))) inv)
  done

let run_or2 s code lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    put s (Sc.target h)
      (Int64.logxor (Int64.logor (get s (Sc.first h)) (get s (second code p))) inv)
  done

let run_xor2 s code lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    put s (Sc.target h)
      (Int64.logxor (Int64.logxor (get s (Sc.first h)) (get s (second code p))) inv)
  done

let run_mux s code spill lo hi =
  for p = lo to hi - 1 do
    let h = head code p and d = second code p in
    put s (Sc.target h)
      (mux (get s (Sc.first h))
         (get s (Array.unsafe_get spill d))
         (get s (Array.unsafe_get spill (d + 1))))
  done

let run_and_n s code spill lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    let acc = ref (-1L) in
    for i = Sc.first h to second code p - 1 do
      acc := Int64.logand !acc (get s (Array.unsafe_get spill i))
    done;
    put s (Sc.target h) (Int64.logxor !acc inv)
  done

let run_or_n s code spill lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    let acc = ref 0L in
    for i = Sc.first h to second code p - 1 do
      acc := Int64.logor !acc (get s (Array.unsafe_get spill i))
    done;
    put s (Sc.target h) (Int64.logxor !acc inv)
  done

let run_xor_n s code spill lo hi inv =
  for p = lo to hi - 1 do
    let h = head code p in
    let acc = ref 0L in
    for i = Sc.first h to second code p - 1 do
      acc := Int64.logxor !acc (get s (Array.unsafe_get spill i))
    done;
    put s (Sc.target h) (Int64.logxor !acc inv)
  done

let eval nl s (inputs : int64 array) =
  check_store "Sim.eval" nl s;
  let ids = N.inputs nl in
  if Array.length inputs <> Array.length ids then
    invalid_arg "Sim.eval: one word per primary input required";
  for pos = 0 to Array.length ids - 1 do
    unsafe_set64 s (ids.(pos) lsl 3) inputs.(pos)
  done;
  let { Sc.ops; ends; code; spill } = N.schedule nl in
  let lo = ref 0 in
  for r = 0 to Array.length ops - 1 do
    let lo' = !lo and hi = Array.unsafe_get ends r in
    (match Array.unsafe_get ops r with
    | Sc.Const0 -> run_const s code lo' hi 0L
    | Sc.Const1 -> run_const s code lo' hi (-1L)
    | Sc.Buf -> run_buf s code lo' hi 0L
    | Sc.Not -> run_buf s code lo' hi (-1L)
    | Sc.And2 -> run_and2 s code lo' hi 0L
    | Sc.Nand2 -> run_and2 s code lo' hi (-1L)
    | Sc.Or2 -> run_or2 s code lo' hi 0L
    | Sc.Nor2 -> run_or2 s code lo' hi (-1L)
    | Sc.Xor2 -> run_xor2 s code lo' hi 0L
    | Sc.Xnor2 -> run_xor2 s code lo' hi (-1L)
    | Sc.Mux -> run_mux s code spill lo' hi
    | Sc.And_n -> run_and_n s code spill lo' hi 0L
    | Sc.Nand_n -> run_and_n s code spill lo' hi (-1L)
    | Sc.Or_n -> run_or_n s code spill lo' hi 0L
    | Sc.Nor_n -> run_or_n s code spill lo' hi (-1L)
    | Sc.Xor_n -> run_xor_n s code spill lo' hi 0L
    | Sc.Xnor_n -> run_xor_n s code spill lo' hi (-1L));
    lo := hi
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
