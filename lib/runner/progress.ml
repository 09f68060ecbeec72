(** See progress.mli. *)

type t = {
  total : int;
  enabled : bool;
  now : unit -> float;
  mutex : Mutex.t;
  started : float;
  cached : int;
  mutable computed : int;
  mutable last_emit : float;
  mutable tags : string list;  (** one per computed cell, newest first *)
}

(* seconds between status lines *)
let interval_s = 1.0

let create ?(enabled = true) ?(now = Unix.gettimeofday) ~total ~cached () =
  {
    total;
    enabled;
    now;
    mutex = Mutex.create ();
    started = now ();
    cached;
    computed = 0;
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

(* computed cells per second since [create], which comes after cache
   replay *)
let rate_unlocked t =
  let elapsed = t.now () -. t.started in
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
  prerr_string (line_unlocked t ^ "\n");
  flush stderr

let tick t ~tag =
  locked t (fun () ->
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
