(** Pending events of an event-driven simulator over a topologically
    numbered netlist: a bit per node id, 32 to an [int] word, drained in
    ascending id order.  Node ids are topological, so draining them upwards
    evaluates every node after all of its fanins, as a min-heap of ids
    would, without keeping one. *)

type t = {
  bits : int array;
  mutable lo : int;  (* no pending bit in a word below [lo] *)
  mutable hi : int;  (* nor above [hi] *)
}

let create n = { bits = Array.make ((n lsr 5) + 1) 0; lo = max_int; hi = -1 }

let[@inline] push t n =
  let w = n lsr 5 in
  Array.unsafe_set t.bits w (Array.unsafe_get t.bits w lor (1 lsl (n land 31)));
  if w < t.lo then t.lo <- w;
  if w > t.hi then t.hi <- w

(* index of the single set bit of a 32-bit power of two (de Bruijn) *)
let bit_index =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(** The least pending id, cleared; -1 once nothing is pending. *)
let[@inline] pop t =
  let r = ref (-1) in
  while !r < 0 && t.lo <= t.hi do
    let w = Array.unsafe_get t.bits t.lo in
    if w = 0 then t.lo <- t.lo + 1
    else begin
      let low = w land -w in
      Array.unsafe_set t.bits t.lo (w lxor low);
      r := (t.lo lsl 5) lor bit_index.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27)
    end
  done;
  if !r < 0 then begin
    t.lo <- max_int;
    t.hi <- -1
  end;
  !r
