(** See metrics.mli. *)

type counter = int Atomic.t

(* Log-scaled buckets: observation [v] lands in the bucket whose inclusive
   upper bound is the smallest 2^(i - offset) >= v.  With 64 buckets and
   offset 32 the instrument spans 2^-32 s (~0.2 ns) to 2^31 s in one
   allocation-free array. *)
let num_buckets = 64

let bucket_offset = 32

type histogram = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
  h_mutex : Mutex.t;
}

let bucket_of v =
  if v <= 0.0 then 0
  else begin
    let _, e = Float.frexp v in
    (* frexp: v = m * 2^e with m in [0.5, 1) — so 2^(e-1) <= v < 2^e,
       hence 2^e is the least power-of-two upper bound (2^(e-1) when v is
       an exact power of two, but the coarser bound keeps it simple) *)
    min (num_buckets - 1) (max 0 (e + bucket_offset))
  end

let bucket_upper i = Float.ldexp 1.0 (i - bucket_offset)

(* --- registry --- *)

type instrument = C of counter | H of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 32

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let intern name make cast kind =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> (
        match cast i with
        | Some x -> x
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics.%s: %S is registered as another kind" kind
               name))
      | None ->
        let x = make () in
        Hashtbl.replace registry name (match x with i, _ -> i);
        snd x)

let counter name =
  intern name
    (fun () ->
      let c = Atomic.make 0 in
      (C c, c))
    (function C c -> Some c | _ -> None)
    "counter"

let histogram name =
  intern name
    (fun () ->
      let h =
        {
          buckets = Array.make num_buckets 0;
          h_count = 0;
          h_sum = 0.0;
          h_max = 0.0;
          h_mutex = Mutex.create ();
        }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)
    "histogram"

(* --- operations --- *)

let incr = Atomic.incr

let add c n = ignore (Atomic.fetch_and_add c n)

let value = Atomic.get

let observe h v =
  let b = bucket_of v in
  Mutex.lock h.h_mutex;
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v;
  Mutex.unlock h.h_mutex

type histogram_snapshot = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
}

let histogram_snapshot h =
  Mutex.lock h.h_mutex;
  let buckets = ref [] in
  for i = num_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (bucket_upper i, h.buckets.(i)) :: !buckets
  done;
  let s = { count = h.h_count; sum = h.h_sum; max = h.h_max; buckets = !buckets } in
  Mutex.unlock h.h_mutex;
  s

let mean h =
  let s = histogram_snapshot h in
  if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

let snapshot_quantile s q =
  if s.count = 0 then 0.0
  else begin
    let rank =
      int_of_float (Float.round (q *. float_of_int (s.count - 1))) + 1
    in
    let rec walk seen = function
      | [] -> s.max
      | (ub, n) :: rest -> if seen + n >= rank then ub else walk (seen + n) rest
    in
    walk 0 s.buckets
  end

let quantile h q = snapshot_quantile (histogram_snapshot h) q

(* --- snapshot --- *)

let reset () = locked (fun () -> Hashtbl.reset registry)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let snapshot_json () =
  let counters = ref [] and histograms = ref [] in
  locked (fun () ->
      Hashtbl.iter
        (fun name -> function
          | C c -> counters := (name, value c) :: !counters
          | H h -> histograms := (name, histogram_snapshot h) :: !histograms)
        registry);
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let b = Buffer.create 512 in
  let key k = "\"" ^ Telemetry.escape k ^ "\":" in
  Buffer.add_string b "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (key name ^ string_of_int v))
    (sorted !counters);
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i (name, (s : histogram_snapshot)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (key name);
      Buffer.add_string b
        (Printf.sprintf "{\"count\":%d,\"sum\":%s,\"max\":%s,\"mean\":%s,"
           s.count (json_float s.sum) (json_float s.max)
           (json_float (if s.count = 0 then 0.0 else s.sum /. float_of_int s.count)));
      Buffer.add_string b
        (Printf.sprintf "\"p50\":%s,\"p99\":%s,\"buckets\":["
           (json_float (snapshot_quantile s 0.5))
           (json_float (snapshot_quantile s 0.99)));
      List.iteri
        (fun j (ub, n) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "[%s,%d]" (json_float ub) n))
        s.buckets;
      Buffer.add_string b "]}")
    (sorted !histograms);
  Buffer.add_string b "}}";
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (snapshot_json ());
      output_char oc '\n')
