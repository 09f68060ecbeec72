(** See journal.mli. *)

type entry = { key : string; id : string; data : string }

module Telemetry = Orap_telemetry.Telemetry
module Trace = Orap_telemetry.Trace

let format_line ~key ~id ~data =
  let e = Telemetry.escape in
  Printf.sprintf "{\"key\":\"%s\",\"id\":\"%s\",\"data\":\"%s\"}" (e key) (e id)
    (e data)

let parse_line line =
  match Trace.parse_json_line line with
  | Error _ -> None
  | Ok fields -> (
    let get k = List.assoc_opt k fields in
    match (get "key", get "id", get "data") with
    | Some (Trace.Jstring key), Some (Trace.Jstring id), Some (Trace.Jstring data) ->
      Some { key; id; data }
    | _ -> None)

(* a missing file is an empty journal *)
let load path =
  if not (Sys.file_exists path) then []
  else
    List.rev
      (Result.get_ok
         (Trace.fold_file path
            (fun acc ~line_no:_ ~line ->
              (* skip blank and corrupt (e.g. crash-truncated) lines *)
              Ok (match parse_line line with Some e -> e :: acc | None -> acc))
            []))

type t = { oc : out_channel; mutex : Mutex.t }

(* a crash can leave the file without a final newline (a half-written
   line); appending straight after it would merge the first new entry into
   the corrupt line and lose both.  Start on a fresh line instead. *)
let ends_with_newline path =
  match (Unix.stat path).Unix.st_size with
  | 0 -> true
  | size ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic (size - 1);
        input_char ic = '\n')
  | exception Unix.Unix_error _ -> true

let open_append path =
  let needs_newline = Sys.file_exists path && not (ends_with_newline path) in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  if needs_newline then output_char oc '\n';
  { oc; mutex = Mutex.create () }

let append t ~key ~id ~data =
  let line = format_line ~key ~id ~data in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t = close_out_noerr t.oc
