(** See telemetry.mli. *)

type value = Int of int | Float of float | String of string | Bool of bool

type phase = Complete

type event = {
  phase : phase;
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  args : (string * value) list;
}

(* --- clock: gettimeofday relative to the trace epoch, clamped so the
   stream never goes backwards (NTP steps would otherwise corrupt span
   durations).  The clamp races benignly across domains: a stale [last]
   read can only under-clamp by the width of the race. --- *)

let epoch = Unix.gettimeofday ()

let last_us = Atomic.make 0.0

let now_us () =
  let t = (Unix.gettimeofday () -. epoch) *. 1e6 in
  let l = Atomic.get last_us in
  if t >= l then begin
    Atomic.set last_us t;
    t
  end
  else l

let tid () = (Domain.self () :> int)

(* --- JSON rendering (Chrome trace_event object per event) --- *)

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_to_json = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | String s -> "\"" ^ escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let event_to_json (e : event) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"ph\":\"X\",\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
       (escape e.name) e.ts_us e.dur_us e.tid);
  (match e.args with
  | [] -> ()
  | args ->
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b ("\"" ^ escape k ^ "\":" ^ value_to_json v))
      args;
    Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

(* --- sinks --- *)

type sink = {
  emit : event -> unit;
  close : unit -> unit;
}

let null () =
  let n = Atomic.make 0 in
  { emit = (fun _ -> Atomic.incr n); close = (fun () -> ()) }

let memory () =
  let events = ref [] in
  let mutex = Mutex.create () in
  let emit e =
    Mutex.lock mutex;
    events := e :: !events;
    Mutex.unlock mutex
  in
  ({ emit; close = (fun () -> ()) }, fun () -> List.rev !events)

let jsonl path =
  let oc = open_out path in
  let mutex = Mutex.create () in
  let emit e =
    let line = event_to_json e in
    Mutex.lock mutex;
    output_string oc line;
    output_char oc '\n';
    Mutex.unlock mutex
  in
  let close () =
    Mutex.lock mutex;
    flush oc;
    close_out_noerr oc;
    Mutex.unlock mutex
  in
  { emit; close }

(* --- global installation ---

   A plain ref, written only from the orchestrating domain (before workers
   spawn / after they join); workers only read it.  The disabled check is
   one load + one branch. *)

let current : sink option ref = ref None

let enabled () = Option.is_some !current

let shutdown () =
  match !current with
  | None -> ()
  | Some s ->
    current := None;
    s.close ()

let install sink =
  shutdown ();
  current := Some sink

let with_sink sink f =
  install sink;
  Fun.protect ~finally:shutdown f

(* --- emission --- *)

let span ?(args = []) ?exit_args name f =
  match !current with
  | None -> f ()
  | Some sink ->
    let t0 = now_us () in
    let finish extra =
      let t1 = now_us () in
      sink.emit
        {
          phase = Complete;
          name;
          ts_us = t0;
          dur_us = t1 -. t0;
          tid = tid ();
          args = args @ extra;
        }
    in
    (match f () with
    | v ->
      finish (match exit_args with None -> [] | Some g -> g v);
      v
    | exception e ->
      finish [ ("error", String (Printexc.to_string e)) ];
      raise e)
