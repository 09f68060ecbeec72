(** Plain-text table rendering for the experiment harnesses.

    A table is declared as a list of columns, each with its header, its
    alignment and the function that renders one row's cell, so a header
    and its cells cannot fall out of step. *)

type align = L | R

type 'row column = { header : string; align : align; cell : 'row -> string }

let col ?(align = R) header cell = { header; align; cell }

(* rows keep the order they are given in: callers replaying journaled
   results pass them in grid order *)
type t = {
  title : string;
  aligns : align list;
  header : string list;
  rows : string list list;
}

let table ~title columns rows =
  {
    title;
    aligns = List.map (fun (c : _ column) -> c.align) columns;
    header = List.map (fun (c : _ column) -> c.header) columns;
    rows = List.map (fun r -> List.map (fun c -> c.cell r) columns) rows;
  }

let render t : string =
  let widths =
    List.fold_left
      (List.map2 (fun w cell -> max w (String.length cell)))
      (List.map String.length t.header) t.rows
  in
  let pad (align, w) s =
    let d = String.make (w - String.length s) ' ' in
    match align with L -> s ^ d | R -> d ^ s
  in
  let formats = List.combine t.aligns widths in
  let line row = "| " ^ String.concat " | " (List.map2 pad formats row) ^ " |\n" in
  let sep =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "|\n"
  in
  String.concat ""
    (("== " ^ t.title ^ " ==\n") :: line t.header :: sep :: List.map line t.rows)

let print t = print_string (render t)

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let d x = string_of_int x
let b x = if x then "yes" else "no"
