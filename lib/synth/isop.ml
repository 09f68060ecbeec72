(** Irredundant sum-of-products via the Minato–Morreale procedure.

    [run k ~nvars ~at] computes an irredundant SOP of the [nvars]-variable
    word table at [at] in [k]'s buffer, with no boxed words: every table of
    the recursion is a run of unboxed words on a bump stack in the same
    [Bytes].  Cubes are (positive-literal mask, negative-literal mask)
    pairs over the truth-table variables. *)

type cube = { pos : int; neg : int }

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))
let cube_literals c = popcount c.pos + popcount c.neg

(* Scratch of the kernel: word tables in [tt] (the caller's tables, then
   the recursion's frames), and the cover's cubes in order, cube [c] being
   [{ pos = cube_pos.(c); neg = cube_neg.(c) }] for [c < num_cubes]. *)
type scratch = {
  mutable tt : Bytes.t;
  mutable cube_pos : int array;
  mutable cube_neg : int array;
  mutable num_cubes : int;
}

let scratch () =
  { tt = Bytes.create 0; cube_pos = Array.make 16 0; cube_neg = Array.make 16 0;
    num_cubes = 0 }

(** Makes [k]'s buffer hold at least [words] words, keeping the first
    [keep]. *)
let reserve k ~keep words =
  if Bytes.length k.tt < words * 8 then begin
    let tt = Bytes.create (max (words * 8) (2 * Bytes.length k.tt)) in
    Bytes.blit k.tt 0 tt 0 (keep * 8);
    k.tt <- tt
  end

let add_cube k pos neg =
  let n = k.num_cubes in
  if n = Array.length k.cube_pos then begin
    k.cube_pos <- Array.append k.cube_pos (Array.make n 0);
    k.cube_neg <- Array.append k.cube_neg (Array.make n 0)
  end;
  k.cube_pos.(n) <- pos;
  k.cube_neg.(n) <- neg;
  k.num_cubes <- n + 1

let get = Truth.word
let set = Truth.set_word

let fill b at nw w =
  for i = at to at + nw - 1 do
    set b i w
  done

let andnot ~full p q = Int64.logand p (Int64.logxor full q)

let all_equal b at nw w =
  let rec from i = i = nw || (get b (at + i) = w && from (i + 1)) in
  from 0

(* the two cofactors of [src] by its highest variable [x], [num_words x]
   words each *)
let cofactors b ~full src x c0 c1 =
  if x < 6 then begin
    let w = get b src and m = Truth.var_masks.(x) and sh = 1 lsl x in
    let lo = Int64.logand w (Int64.lognot m) and hi = Int64.logand w m in
    set b c0 (Int64.logand full (Int64.logor lo (Int64.shift_left lo sh)));
    set b c1 (Int64.logand full (Int64.logor hi (Int64.shift_right_logical hi sh)))
  end
  else begin
    let nx = Truth.num_words x in
    Bytes.blit b (src * 8) b (c0 * 8) (nx * 8);
    Bytes.blit b ((src + nx) * 8) b (c1 * 8) (nx * 8)
  end

(* the highest variable below [i + 1] that [lower] or [upper] depends on,
   or -1 *)
let rec highest_var b ~full ~nw lower upper i =
  if i < 0 then -1
  else if
    Truth.depends_on_words b ~at:lower ~nw ~full i
    || Truth.depends_on_words b ~at:upper ~nw ~full i
  then i
  else highest_var b ~full ~nw lower upper (i - 1)

(* words of the frames the recursion below [nvars] variables stacks up at
   most: one frame per level, with strictly fewer variables each *)
let stack_words nvars =
  let s = ref 0 in
  for x = 0 to nvars - 1 do
    s := !s + (8 * Truth.num_words x)
  done;
  !s

(* [isop k ~full lower upper v cover top] appends a cover [c] with
   [lower <= c <= upper] to the cubes and writes [c]'s table at [cover].
   No table depends on a variable [>= v], so each is given by its first
   [num_words v] words (for [v <= 6], by one word whose pattern repeats).
   The frame of eight [num_words x]-word tables starts at [top].  The
   variable choice and the three sub-calls are the textbook recursion's,
   so the cubes come out in its order: the [x = 0] half's with literal
   [not x], the [x = 1] half's with literal [x], then the shared ones. *)
let rec isop k ~full lower upper v cover top =
  let b = k.tt in
  let nv = Truth.num_words v in
  if all_equal b lower nv 0L then fill b cover nv 0L
  else if all_equal b lower nv full then begin
    add_cube k 0 0;
    fill b cover nv full
  end
  else begin
    (* [lower] is not constant, so it depends on some variable *)
    let x = highest_var b ~full ~nw:nv lower upper (v - 1) in
    let nx = Truth.num_words x in
    let l0 = top and l1 = top + nx and u0 = top + (2 * nx)
    and u1 = top + (3 * nx) and arg = top + (4 * nx)
    and cov0 = top + (5 * nx) and cov1 = top + (6 * nx)
    and cov2 = top + (7 * nx) and next = top + (8 * nx) in
    cofactors b ~full lower x l0 l1;
    cofactors b ~full upper x u0 u1;
    (* cubes that must appear in the x=0 half only *)
    for w = 0 to nx - 1 do
      set b (arg + w) (andnot ~full (get b (l0 + w)) (get b (u1 + w)))
    done;
    let start0 = k.num_cubes in
    isop k ~full arg u0 x cov0 next;
    let start1 = k.num_cubes in
    for w = 0 to nx - 1 do
      set b (arg + w) (andnot ~full (get b (l1 + w)) (get b (u0 + w)))
    done;
    isop k ~full arg u1 x cov1 next;
    let bit = 1 lsl x in
    for c = start0 to start1 - 1 do
      k.cube_neg.(c) <- k.cube_neg.(c) lor bit
    done;
    for c = start1 to k.num_cubes - 1 do
      k.cube_pos.(c) <- k.cube_pos.(c) lor bit
    done;
    (* what neither half covered, within both halves' upper bounds *)
    for w = 0 to nx - 1 do
      set b (arg + w)
        (Int64.logor
           (andnot ~full (get b (l0 + w)) (get b (cov0 + w)))
           (andnot ~full (get b (l1 + w)) (get b (cov1 + w))));
      set b (u0 + w) (Int64.logand (get b (u0 + w)) (get b (u1 + w)))
    done;
    isop k ~full arg u0 x cov2 next;
    (* the cover: cov0 where x = 0, cov1 where x = 1, cov2 throughout,
       repeated out to [nv] words *)
    if x < 6 then begin
      let m = Truth.var_masks.(x) in
      fill b cover nv
        (Int64.logor
           (Int64.logor
              (Int64.logand (get b cov0) (Int64.lognot m))
              (Int64.logand (get b cov1) m))
           (get b cov2))
    end
    else begin
      for w = 0 to nx - 1 do
        let c2 = get b (cov2 + w) in
        set b (cover + w) (Int64.logor (get b (cov0 + w)) c2);
        set b (cover + nx + w) (Int64.logor (get b (cov1 + w)) c2)
      done;
      for w = 2 * nx to nv - 1 do
        set b (cover + w) (get b (cover + w - (2 * nx)))
      done
    end
  end

(** The ISOP of the [nvars]-variable table at word [at] of [k]'s buffer
    (bits past [2^nvars] clear): afterwards the cubes are [k]'s first
    [num_cubes].  Uses the buffer above the table's [num_words nvars]
    words, growing it if needed.  Fails if the cover differs from the
    table, which would be a bug in the kernel. *)
let run k ~nvars ~at =
  let nw = Truth.num_words nvars in
  let cover = at + nw in
  let top = cover + nw in
  reserve k ~keep:cover (top + stack_words nvars);
  k.num_cubes <- 0;
  isop k ~full:(Truth.full nvars) at at nvars cover top;
  for w = 0 to nw - 1 do
    if get k.tt (cover + w) <> get k.tt (at + w) then
      failwith "Isop.run: the cover differs from the function"
  done

let cube_cost pos neg = max 0 (popcount pos + popcount neg - 1)

(** Structural cost of a cover when built as a 2-input AND/OR network:
    [sum (lits_i - 1)] AND nodes per cube plus [cubes - 1] OR nodes. *)
let cost cubes =
  match cubes with
  | [] -> 0
  | _ ->
    List.fold_left (fun acc c -> acc + cube_cost c.pos c.neg) 0 cubes
    + (List.length cubes - 1)

(** [cost] of the cover [run] left in [k]. *)
let scratch_cost k =
  let acc = ref (max 0 (k.num_cubes - 1)) in
  for c = 0 to k.num_cubes - 1 do
    acc := !acc + cube_cost k.cube_pos.(c) k.cube_neg.(c)
  done;
  !acc

(** The cover [run] left in [k], in order. *)
let cubes k =
  List.init k.num_cubes (fun c -> { pos = k.cube_pos.(c); neg = k.cube_neg.(c) })

(** SOP of [f] (irredundant w.r.t. cube containment). *)
let compute (f : Truth.t) : cube list =
  let k = scratch () in
  let nw = Array.length f.Truth.words in
  reserve k ~keep:0 nw;
  Array.iteri (set k.tt) f.Truth.words;
  run k ~nvars:f.Truth.nvars ~at:0;
  cubes k

(** Build the cover inside an AIG over the given leaf literals. *)
let to_aig (aig : Aig.t) (leaves : int array) cubes : int =
  let cube_lit c =
    let lits = ref [] in
    Array.iteri
      (fun i l ->
        if (c.pos lsr i) land 1 = 1 then lits := l :: !lits;
        if (c.neg lsr i) land 1 = 1 then lits := Aig.compl_lit l :: !lits)
      leaves;
    Aig.and_list aig !lits
  in
  Aig.or_list aig (List.map cube_lit cubes)
