(** The key-register LFSR of the OraP scheme (Fig. 1).

    Galois-style shift register: on every clock the feedback bit (the last
    cell) is XORed into the cells selected by the characteristic polynomial,
    while external data — seed bits from the tamper-proof memory and, in the
    modified scheme, circuit responses — is XORed in at the designated
    reseeding points.  The paper's default polynomial places "a new tap
    after every eight LFSR cells". *)

type t = {
  size : int;
  taps : bool array;  (** taps.(i): feedback XORs into cell i *)
  reseed_points : int array;  (** cell indices with injection XORs *)
  mutable state : bool array;
}

(** Characteristic-polynomial taps: one every [stride] cells (paper: 8). *)
let default_taps ~size ~stride =
  let taps = Array.make size false in
  let i = ref (stride - 1) in
  while !i < size - 1 do
    taps.(!i) <- true;
    i := !i + stride
  done;
  taps

(** All cells are reseeding points — Fig. 1's "most general case". *)
let all_reseed_points size = Array.init size (fun i -> i)

let create ?taps ?reseed_points ~size () =
  if size < 2 then invalid_arg "Lfsr.create";
  let taps = match taps with Some t -> t | None -> default_taps ~size ~stride:8 in
  if Array.length taps <> size then invalid_arg "Lfsr.create: taps size";
  let reseed_points =
    match reseed_points with Some r -> r | None -> all_reseed_points size
  in
  Array.iter
    (fun p -> if p < 0 || p >= size then invalid_arg "Lfsr.create: reseed point")
    reseed_points;
  { size; taps; reseed_points; state = Array.make size false }

let size t = t.size
let state t = Array.copy t.state
let set_state t s =
  if Array.length s <> t.size then invalid_arg "Lfsr.set_state";
  t.state <- Array.copy s

let cell t i = t.state.(i)
let set_cell t i v = t.state.(i) <- v

let num_reseed_points t = Array.length t.reseed_points
let taps_of t = t.taps
let reseed_points_of t = t.reseed_points

(** One clock edge.  [injection], when given, carries one bit per reseeding
    point (position-aligned with [reseed_points]); omitted = all-zero word
    (a free-run cycle). *)
let step ?injection t =
  (match injection with
  | Some inj when Array.length inj <> Array.length t.reseed_points ->
    invalid_arg "Lfsr.step: injection width"
  | Some _ | None -> ());
  let fb = t.state.(t.size - 1) in
  let next = Array.make t.size false in
  next.(0) <- fb;
  for i = 1 to t.size - 1 do
    next.(i) <- t.state.(i - 1) <> (t.taps.(i) && fb)
  done;
  (match injection with
  | None -> ()
  | Some inj ->
    Array.iteri
      (fun k p -> if inj.(k) then next.(p) <- not next.(p))
      t.reseed_points);
  t.state <- next

let free_run t cycles =
  for _ = 1 to cycles do
    step t
  done
