(** Types and helpers shared by every workload of the benchmark. *)

module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics

(** The grid workers of the table workloads: the grids are defined at two,
    and a run is refused on fewer usable cores. *)
let jobs = 2

(** How a pass runs its items.  [Library] is the end-to-end path: the
    library's own entry points, tracing off.  [Sequence] is the traced call
    sequence (the benchmark's calls into each layer, one span each) with no
    sink installed, and [Traced] the same sequence with the in-memory sink.
    The attack workloads call the attacks directly, so their three modes
    run the same code. *)
type mode = Library | Sequence | Traced

(** One pass over a workload's items. *)
type pass = {
  wall_s : float;  (** the timed region *)
  cpu_s : float;  (** process user+sys CPU over the timed region *)
  item_s : float list;  (** one entry per item: an attack run or a grid cell *)
  scale : float;
      (** [Calib.scale] of the samples taken around the items; 1 unless
          the pass is [Library] *)
  failed : int;  (** items that missed their reference or raised *)
  counts : (string * int) list;
      (** must repeat exactly between passes and between runs of one build *)
  notes : string list;  (** why items failed, for stderr *)
  events : Telemetry.event list;  (** the pass's trace; empty when untraced *)
  heap_mb : float;  (** largest major heap seen at the end of an item *)
  item_heap_mb : float;
      (** largest major-heap growth over one item (traced attack passes) *)
}

(** A workload: [setup ()] builds the fixtures (the timed set-up) and
    returns the function that runs one pass over them. *)
type workload = {
  name : string;
  parallel : bool;  (** runs its items through [Runner.map_grid] at [jobs] *)
  trace_setup : bool;
      (** set-up spans feed the per-layer metrics (attack fixtures are
          built there; table cells build their own) *)
  setup : toy:bool -> seed:int -> unit -> mode -> pass;
}

(** Workloads draw their inputs from one of [variants] seed variants: the
    table reference rows are recorded for each, and runs whose seeds share
    a variant must repeat each other's counts. *)
let variants = 16

let variant seed = ((seed mod variants) + variants) mod variants

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** [timed f] runs [f] and returns its result, wall seconds and CPU
    seconds. *)
let timed f =
  let c0 = cpu_now () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  (r, wall, cpu_now () -. c0)

let counter name = Metrics.value (Metrics.counter name)

(* the major heap's current size; it does not shrink when an item's
   structures become garbage, so sampled after an item it bounds the
   item's peak *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0

let sum = List.fold_left ( +. ) 0.0

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let list_max = List.fold_left Float.max 0.0

(** [ratio a b] is [a /. b], and 0 when [b] is 0. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Sum count lists key by key; the result is sorted by key. *)
let add_counts (ls : (string * int) list list) =
  let t = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace t k (v + Option.value (Hashtbl.find_opt t k) ~default:0)))
    ls;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

(* --- reference data --- *)

let reference_dir = ref "perfbench/reference"

(* Counts must repeat between runs of one build, so they are kept per
   build, under a digest of the executable: a count that a later version
   of the program changes on purpose (a solver's conflicts) is not a
   failure of that version. *)
let counts_dir = ref ".bench_build/counts"

let counts_path ~key =
  Filename.concat !counts_dir (Digest.to_hex (Digest.file Sys.executable_name) ^ "-" ^ key)

(** The counts earlier runs of this executable stored under [key] (one
    "<name>\t<value>" line each); none before the first run. *)
let stored_counts ~key : (string * int) list =
  let file = counts_path ~key in
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let rec read acc =
      match input_line ic with
      | line -> (
        match String.split_on_char '\t' line with
        | [ k; n ] -> read ((k, int_of_string n) :: acc)
        | _ -> read acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    read []
  end

let store_counts ~key (counts : (string * int) list) =
  if not (Sys.file_exists !counts_dir) then Sys.mkdir !counts_dir 0o755;
  let file = counts_path ~key in
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  List.iter (fun (k, n) -> Printf.fprintf oc "%s\t%d\n" k n) counts;
  close_out oc;
  Sys.rename tmp file

(** Run [f] with an in-memory trace sink when [traced]; returns the result
    and the captured events (none when untraced). *)
let with_trace ~traced f =
  if not traced then (f (), [])
  else begin
    let sink, events = Telemetry.memory () in
    Telemetry.install sink;
    match f () with
    | r ->
      let evs = events () in
      Telemetry.shutdown ();
      (r, evs)
    | exception e ->
      Telemetry.shutdown ();
      raise e
  end
