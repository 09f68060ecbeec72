(** See progress.mli. *)

type t = {
  total : int;
  out : out_channel;
  enabled : bool;
  now : unit -> float;
  mutex : Mutex.t;
  started : float;
  mutable compute_started : float option;
      (** when real computation began — cache replay before this instant is
          excluded from the throughput estimate *)
  mutable computed : int;
  mutable cached : int;
  mutable last_emit : float;
  mutable tags : string list;  (** one per computed cell, newest first *)
}

(* seconds between status lines *)
let interval_s = 1.0

let create ?(out = stderr) ?(enabled = true)
    ?(now = Unix.gettimeofday) ~total () =
  {
    total;
    out;
    enabled;
    now;
    mutex = Mutex.create ();
    started = now ();
    compute_started = None;
    computed = 0;
    cached = 0;
    last_emit = 0.0;
    tags = [];
  }

let tally tags =
  let rec counts acc = function
    | [] -> List.rev acc
    | tag :: rest ->
      let same, others = List.partition (String.equal tag) rest in
      counts (Printf.sprintf "%d %s" (1 + List.length same) tag :: acc) others
  in
  String.concat ", " (counts [] tags)

let completed t = t.computed + t.cached

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let start_compute t =
  locked t (fun () ->
      if t.compute_started = None then t.compute_started <- Some (t.now ()))

(* computed cells per second of COMPUTE time: measuring from [started]
   would fold journal-load/cache-replay time into the denominator and
   understate the rate (so overstate the ETA) on resumed runs *)
let rate_unlocked t =
  let base = match t.compute_started with Some s -> s | None -> t.started in
  let elapsed = t.now () -. base in
  if elapsed > 0.0 then float_of_int t.computed /. elapsed else 0.0

let rate t = locked t (fun () -> rate_unlocked t)

let eta_s_unlocked t =
  let remaining = t.total - completed t in
  if remaining <= 0 then Some 0.0
  else
    let rate = rate_unlocked t in
    if rate > 0.0 then Some (float_of_int remaining /. rate) else None

let eta_s t = locked t (fun () -> eta_s_unlocked t)

let line_unlocked t =
  let rate = rate_unlocked t in
  let eta =
    match eta_s_unlocked t with
    | Some s -> Printf.sprintf "%.1fs" s
    | None -> "?"
  in
  let cached =
    if t.cached > 0 then Printf.sprintf "  (%d cached)" t.cached else ""
  in
  let tags = match t.tags with [] -> "" | tags -> "  " ^ tally (List.rev tags) in
  Printf.sprintf "[runner] %d/%d cells  %.1f cells/s  ETA %s%s%s"
    (completed t) t.total rate eta cached tags

let line t = locked t (fun () -> line_unlocked t)

let emit t =
  output_string t.out (line_unlocked t ^ "\n");
  flush t.out

let add_cached t n = locked t (fun () -> t.cached <- t.cached + n)

let tick t ~tag =
  locked t (fun () ->
      (* fallback for callers that never announce the compute phase: date
         it from the first tick so replay time still stays excluded *)
      if t.compute_started = None then t.compute_started <- Some t.started;
      t.computed <- t.computed + 1;
      t.tags <- tag :: t.tags;
      if t.enabled then begin
        let now = t.now () in
        if now -. t.last_emit >= interval_s then begin
          t.last_emit <- now;
          emit t
        end
      end)

let finish t = locked t (fun () -> if t.enabled then emit t)
