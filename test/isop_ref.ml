(** Reference ISOP: [Orap_synth.Isop] as it stood before the word-table
    kernel, kept only for the differential properties in
    [test_prop_synth.ml].  Every table of the Minato–Morreale recursion is
    a fresh boxed [Truth.t] over all the variables, and each level builds
    its cube list with [@].  The kernel must return exactly the same cubes
    in the same order, since the order fixes the AIG refactoring rebuilds.
    Do not optimise this file: its value is that it is the old,
    obviously-correct recursion. *)

module Truth = Orap_synth.Truth
module Isop = Orap_synth.Isop

let cube_truth nvars (c : Isop.cube) =
  let t = ref (Truth.ones nvars) in
  for i = 0 to nvars - 1 do
    if (c.pos lsr i) land 1 = 1 then t := Truth.logand !t (Truth.var nvars i);
    if (c.neg lsr i) land 1 = 1 then
      t := Truth.logand !t (Truth.lognot (Truth.var nvars i))
  done;
  !t

let cover_truth nvars cubes =
  List.fold_left
    (fun acc c -> Truth.logor acc (cube_truth nvars c))
    (Truth.zero nvars) cubes

(** Core recursion.  Returns (cubes, truth table of the cover). *)
let rec isop lower upper var_index : Isop.cube list * Truth.t =
  let nvars = lower.Truth.nvars in
  if Truth.is_zero lower then ([], Truth.zero nvars)
  else if Truth.is_ones lower then ([ { Isop.pos = 0; neg = 0 } ], Truth.ones nvars)
  else begin
    (* find a variable on which lower or upper depends, by the definition
       rather than [Truth.depends_on], which shares the kernel's code *)
    let depends t i =
      not (Truth.equal (Truth.cofactor0 t i) (Truth.cofactor1 t i))
    in
    let rec find i =
      if i < 0 then -1
      else if depends lower i || depends upper i then i
      else find (i - 1)
    in
    let x = find (var_index - 1) in
    if x < 0 then
      (* both constant; lower <= upper and lower <> 0 => lower = ones *)
      ([ { Isop.pos = 0; neg = 0 } ], Truth.ones nvars)
    else begin
      let l0 = Truth.cofactor0 lower x and l1 = Truth.cofactor1 lower x in
      let u0 = Truth.cofactor0 upper x and u1 = Truth.cofactor1 upper x in
      (* cubes that must appear in the x=0 half only *)
      let c0, cov0 = isop (Truth.logand l0 (Truth.lognot u1)) u0 x in
      let c1, cov1 = isop (Truth.logand l1 (Truth.lognot u0)) u1 x in
      let l0' = Truth.logand l0 (Truth.lognot cov0) in
      let l1' = Truth.logand l1 (Truth.lognot cov1) in
      let lnew = Truth.logor l0' l1' in
      let c2, cov2 = isop lnew (Truth.logand u0 u1) x in
      let bit = 1 lsl x in
      let cubes =
        List.map (fun (c : Isop.cube) -> { c with neg = c.neg lor bit }) c0
        @ List.map (fun (c : Isop.cube) -> { c with pos = c.pos lor bit }) c1
        @ c2
      in
      let xv = Truth.var nvars x in
      let cover =
        Truth.logor
          (Truth.logor
             (Truth.logand (Truth.lognot xv) cov0)
             (Truth.logand xv cov1))
          cov2
      in
      (cubes, cover)
    end
  end

(** SOP of [f] (irredundant w.r.t. cube containment). *)
let compute (f : Truth.t) : Isop.cube list =
  let cubes, cover = isop f f f.Truth.nvars in
  assert (Truth.equal cover f);
  cubes
