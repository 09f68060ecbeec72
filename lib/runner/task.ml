(** See task.mli. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash64 (s : string) : int64 =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let hash_hex s = Printf.sprintf "%016Lx" (hash64 s)

(* '\x00' cannot appear in a cell id line, so the pair encoding is
   injective *)
let cell_key ~root_seed ~id = hash_hex (Printf.sprintf "%d\x00%s" root_seed id)

let derive_seed ~root_seed ~id =
  let h = hash64 (Printf.sprintf "seed\x00%d\x00%s" root_seed id) in
  Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL)

type 'a cell = {
  index : int;
  id : string;
  key : string;
  seed : int;
  payload : 'a;
}

let grid ~root_seed ~id items =
  List.mapi
    (fun index payload ->
      let id = id payload in
      {
        index;
        id;
        key = cell_key ~root_seed ~id;
        seed = derive_seed ~root_seed ~id;
        payload;
      })
    items
