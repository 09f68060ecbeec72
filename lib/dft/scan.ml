(** Scan-chain structure.  A chain is an ordering of scannable cells — the
    circuit's state flip-flops and the key-register (LFSR) cells, which the
    OraP scheme deliberately places in the chains (Section II).

    Shift direction: [scan-in -> cell 0 -> cell 1 -> ... -> scan-out]. *)

type cell = Key of int  (** LFSR cell index *) | State of int  (** FF index *)

type style =
  | Key_first  (** all LFSR cells ahead of the state FFs (paper guideline) *)
  | Interleaved
      (** LFSR cells interleaved with state FFs (paper guideline for chains
          holding several LFSR cells: maximises scenario-(b) payload) *)
  | Key_last  (** anti-pattern, kept for the threat experiments *)

type t = { order : cell array }

let order t = t.order
let length t = Array.length t.order

let build ?(style = Interleaved) ~num_key ~num_state () : t =
  let keys = List.init num_key (fun i -> Key i) in
  let states = List.init num_state (fun i -> State i) in
  let order =
    match style with
    | Key_first -> keys @ states
    | Key_last -> states @ keys
    | Interleaved ->
      if num_key = 0 then states
      else begin
        (* spread the key cells evenly through the chain *)
        let stride = max 1 (num_state / max 1 num_key) in
        let rec weave ks ss acc count =
          match (ks, ss) with
          | [], ss -> List.rev_append acc ss
          | ks, [] -> List.rev_append acc ks
          | k :: ks', s :: ss' ->
            if count mod (stride + 1) = 0 then weave ks' (s :: ss') (k :: acc) (count + 1)
            else weave (k :: ks') ss' (s :: acc) (count + 1)
        in
        weave keys states [] 0
      end
  in
  { order = Array.of_list order }

(** The chain with its key cells bypassed (scenario (b)'s Trojan). *)
let without_keys t =
  let is_state = function State _ -> true | Key _ -> false in
  { order = Array.of_seq (Seq.filter is_state (Array.to_seq t.order)) }

(** Positions of the key cells in the chain (for threat analysis: how many
    bypass multiplexers scenario (b) needs). *)
let key_positions t =
  let acc = ref [] in
  Array.iteri
    (fun i c -> match c with Key _ -> acc := i :: !acc | State _ -> ())
    t.order;
  List.rev !acc

(** Number of key cells that are immediately followed in the chain by a
    state FF — each such boundary forces one Trojan bypass MUX in
    scenario (b). *)
let bypass_mux_count t =
  let n = Array.length t.order in
  let count = ref 0 in
  for i = 0 to n - 1 do
    match t.order.(i) with
    | Key _ ->
      if i = n - 1 then incr count
      else (match t.order.(i + 1) with State _ -> incr count | Key _ -> ())
    | State _ -> ()
  done;
  !count
