(** See runner.mli. *)

module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics

type options = {
  jobs : int;
  journal : string option;
  resume : bool;
  root_seed : int;
  progress : bool;
  progress_interval_s : float;
}

let default_options =
  {
    jobs = 0;
    journal = None;
    resume = false;
    root_seed = 0;
    progress = false;
    progress_interval_s = 1.0;
  }

type 'b codec = { encode : 'b -> string; decode : string -> 'b option }

let unfields = String.split_on_char '\t'

let codec ~encode ~decode =
  {
    encode = (fun r -> String.concat "\t" (encode r));
    decode = (fun s -> try Some (decode (unfields s)) with _ -> None);
  }

let float_repr x = Printf.sprintf "%h" x

let map_grid ?(options = default_options) ?codec ?(tag = fun _ -> "done") ~id
    ~f items =
  (match (options.journal, codec) with
  | Some _, None ->
    invalid_arg "Runner.map_grid: a journal requires a result codec"
  | _ -> ());
  let cells =
    Array.of_list (Task.grid ~root_seed:options.root_seed ~id items)
  in
  let n = Array.length cells in
  let results : 'b option array = Array.make n None in
  (* resume: serve journaled cells without recomputation *)
  (match (options.journal, codec) with
  | Some path, Some c when options.resume ->
    let by_key = Hashtbl.create 64 in
    List.iter
      (fun e -> Hashtbl.replace by_key e.Journal.key e.Journal.data)
      (Journal.load path);
    Array.iter
      (fun cell ->
        match Hashtbl.find_opt by_key cell.Task.key with
        | Some data -> (
          match c.decode data with
          | Some v -> results.(cell.Task.index) <- Some v
          | None -> ())
        | None -> ())
      cells
  | _ -> ());
  let todo =
    Array.of_list
      (List.filter
         (fun cell -> Option.is_none results.(cell.Task.index))
         (Array.to_list cells))
  in
  let progress =
    Progress.create ~interval_s:options.progress_interval_s
      ~enabled:options.progress ~total:n ()
  in
  let cached = n - Array.length todo in
  Progress.add_cached progress cached;
  Metrics.add (Metrics.counter "runner.cache_hits") cached;
  let journal =
    match options.journal with
    | Some path -> Some (Journal.open_append path)
    | None -> None
  in
  let on_result i v =
    (match (journal, codec) with
    | Some j, Some c ->
      Journal.append j ~key:todo.(i).Task.key ~id:todo.(i).Task.id
        ~data:(c.encode v);
      Metrics.incr (Metrics.counter "runner.journal_appends")
    | _ -> ());
    Metrics.incr (Metrics.counter "runner.cells_computed");
    Progress.tick progress ~tag:(tag v)
  in
  (* cache replay ends here: the throughput estimate starts now *)
  Progress.start_compute progress;
  let outcomes =
    Pool.map ~jobs:options.jobs ~on_result
      (fun _ cell ->
        Telemetry.span "runner.cell"
          ~args:
            [
              ("id", Telemetry.String cell.Task.id);
              ("key", Telemetry.String cell.Task.key);
            ]
          (fun () -> f ~seed:cell.Task.seed cell.Task.payload))
      todo
  in
  (match journal with Some j -> Journal.close j | None -> ());
  Progress.finish progress;
  let first_error = ref None in
  Array.iteri
    (fun i -> function
      | Ok v -> results.(todo.(i).Task.index) <- Some v
      | Error e ->
        if Option.is_none !first_error then first_error := Some e)
    outcomes;
  (match !first_error with Some e -> raise e | None -> ());
  Array.to_list
    (Array.map (function Some v -> v | None -> assert false) results)
