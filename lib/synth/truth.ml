(** Truth tables over up to [max_vars] = 16 variables, packed 64 bits per
    word.  Bit [p] of the table is the function value on the input pattern
    whose variable [i] equals bit [i] of [p]. *)

type t = { nvars : int; words : int64 array }

let max_vars = 16

let num_words nvars = if nvars <= 6 then 1 else 1 lsl (nvars - 6)

let make nvars fill =
  if nvars < 0 || nvars > max_vars then invalid_arg "Truth.make";
  { nvars; words = Array.make (num_words nvars) fill }

let zero nvars = make nvars 0L

let ones nvars =
  let t = make nvars Int64.minus_one in
  if nvars < 6 then
    t.words.(0) <- Int64.sub (Int64.shift_left 1L (1 lsl nvars)) 1L;
  t

(* the classic within-word variable masks *)
let var_masks =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

(** Truth table of variable [i]. *)
let var nvars i =
  if i < 0 || i >= nvars then invalid_arg "Truth.var";
  let t = zero nvars in
  if i < 6 then begin
    let m = var_masks.(i) in
    let m =
      if nvars < 6 then
        Int64.logand m (Int64.sub (Int64.shift_left 1L (1 lsl nvars)) 1L)
      else m
    in
    Array.fill t.words 0 (Array.length t.words) m
  end
  else begin
    let stride = 1 lsl (i - 6) in
    let n = Array.length t.words in
    let w = ref 0 in
    while !w < n do
      for k = !w + stride to !w + (2 * stride) - 1 do
        t.words.(k) <- Int64.minus_one
      done;
      w := !w + (2 * stride)
    done
  end;
  t

let mask_last nvars word =
  if nvars < 6 then
    Int64.logand word (Int64.sub (Int64.shift_left 1L (1 lsl nvars)) 1L)
  else word

let map2 f a b =
  if a.nvars <> b.nvars then invalid_arg "Truth.map2";
  { nvars = a.nvars; words = Array.map2 f a.words b.words }

let logand = map2 Int64.logand
let logor = map2 Int64.logor
let logxor = map2 Int64.logxor

let lognot a =
  { nvars = a.nvars;
    words = Array.map (fun w -> mask_last a.nvars (Int64.lognot w)) a.words }

let equal a b = a.nvars = b.nvars && a.words = b.words
let is_zero a = Array.for_all (fun w -> w = 0L) a.words
let is_ones a = equal a (ones a.nvars)

(** Positive cofactor: the function with variable [i] forced to 1, expressed
    over the same variable set (result no longer depends on [i]). *)
let cofactor1 a i =
  let r = { nvars = a.nvars; words = Array.copy a.words } in
  if i < 6 then begin
    let m = var_masks.(i) in
    let sh = 1 lsl i in
    Array.iteri
      (fun k w ->
        let hi = Int64.logand w m in
        r.words.(k) <-
          mask_last a.nvars (Int64.logor hi (Int64.shift_right_logical hi sh)))
      a.words
  end
  else begin
    let stride = 1 lsl (i - 6) in
    let n = Array.length a.words in
    let w = ref 0 in
    while !w < n do
      for k = 0 to stride - 1 do
        r.words.(!w + k) <- a.words.(!w + stride + k);
        r.words.(!w + stride + k) <- a.words.(!w + stride + k)
      done;
      w := !w + (2 * stride)
    done
  end;
  r

(** Negative cofactor: variable [i] forced to 0. *)
let cofactor0 a i =
  let r = { nvars = a.nvars; words = Array.copy a.words } in
  if i < 6 then begin
    let m = Int64.lognot var_masks.(i) in
    let sh = 1 lsl i in
    Array.iteri
      (fun k w ->
        let lo = Int64.logand w m in
        r.words.(k) <-
          mask_last a.nvars (Int64.logor lo (Int64.shift_left lo sh)))
      a.words
  end
  else begin
    let stride = 1 lsl (i - 6) in
    let n = Array.length a.words in
    let w = ref 0 in
    while !w < n do
      for k = 0 to stride - 1 do
        r.words.(!w + k) <- a.words.(!w + k);
        r.words.(!w + stride + k) <- a.words.(!w + k)
      done;
      w := !w + (2 * stride)
    done
  end;
  r

(** Does the function depend on variable [i]?  Same answer as
    [not (equal (cofactor0 a i) (cofactor1 a i))], found by comparing the
    two cofactor halves in place, without building either cofactor. *)
let depends_on a i =
  if i < 0 || i >= a.nvars then invalid_arg "Truth.depends_on";
  let n = Array.length a.words in
  if i < 6 then begin
    (* bit p (variable i clear) against bit p + 2^i (variable i set) *)
    let m = mask_last a.nvars (Int64.lognot var_masks.(i)) and sh = 1 lsl i in
    let rec differs k =
      k < n
      && (let w = a.words.(k) in
          Int64.logand m (Int64.logxor w (Int64.shift_right_logical w sh)) <> 0L
          || differs (k + 1))
    in
    differs 0
  end
  else begin
    (* word k of each variable-clear block against word k + stride *)
    let stride = 1 lsl (i - 6) in
    let rec differs k =
      k < n
      && (a.words.(k) <> a.words.(k + stride)
         || differs
              (if (k + 1) land (stride - 1) = 0 then k + 1 + stride else k + 1))
    in
    differs 0
  end

(** Number of variables the function depends on. *)
let support_size a =
  let s = ref 0 in
  for i = 0 to a.nvars - 1 do
    if depends_on a i then incr s
  done;
  !s

let popcount a =
  Array.fold_left
    (fun acc w ->
      let x = w in
      let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
      let x =
        Int64.add
          (Int64.logand x 0x3333333333333333L)
          (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
      in
      let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
      acc + Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56))
    0 a.words

let get a p =
  let w = p lsr 6 and b = p land 63 in
  Int64.logand (Int64.shift_right_logical a.words.(w) b) 1L <> 0L

let to_hex a =
  String.concat ""
    (List.rev_map (Printf.sprintf "%016Lx") (Array.to_list a.words))
