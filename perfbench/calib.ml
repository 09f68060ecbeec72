(** Host-speed calibration.

    A shared host gives the benchmark a speed that drifts by tens of
    percent over seconds to minutes, with the load of its other tenants, so
    a whole run, or a pass within it, can land in a slow or a fast stretch.
    The end-to-end runs therefore time a fixed piece of work that calls
    nothing in the library around every set-up series and between the
    items of every pass, and scale the pass's times to a host on which one
    sample takes [nominal_s] seconds.  A change to the library cannot move
    the samples, so it moves the scaled times in the same proportion as the
    raw ones.

    The work is dependent random reads over a table larger than the caches.
    Of the kinds of work timed side by side with the workloads' passes on a
    2-vCPU Xeon VM (such reads, reads the L2 cache serves, and arithmetic),
    its time followed the passes' times most closely: pass time over sample
    time stayed within about 7% while the raw pass times moved by 17%.  The
    table lies outside the OCaml heap and the work allocates nothing, so it
    neither depends on the heap a workload left behind nor adds to the heap
    figures. *)

(** Seconds per sample on the reference host: a round figure near what a
    sample takes on a quiet 2-vCPU Xeon VM. *)
let nominal_s = 0.003

let table_words = 1 lsl 21

(* 16 MB of indices into itself *)
let table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout table_words in
  for i = 0 to table_words - 1 do
    a.{i} <- (i * 2654435761 + 12345) land (table_words - 1)
  done;
  a

(* where the reads went on; each domain keeps its own, so a chunk reads
   lines the previous chunks of its domain have not brought into the caches *)
let step = Domain.DLS.new_key (fun () -> ref 0)

let chunk () =
  let k = Domain.DLS.get step in
  let p = ref !k in
  for i = !k + 1 to !k + 20_000 do
    p := table.{(!p + i) land (table_words - 1)}
  done;
  k := !k + 20_000;
  ignore (Sys.opaque_identity !p)

let chunks = 5

(** Seconds one chunk takes now: the median of [chunks] chunks, so a
    preemption in one of them does not count. *)
let sample () =
  let times =
    List.init chunks (fun _ ->
        let t0 = Unix.gettimeofday () in
        chunk ();
        Unix.gettimeofday () -. t0)
  in
  Common.median times

(** [around ~calibrate f xs] applies [f] to each element of [xs], with a
    sample before the first and after each; returns the results and the
    samples (none when not [calibrate]). *)
let around ~calibrate f xs =
  if not calibrate then (List.map f xs, [])
  else begin
    let first = sample () in
    let rs = List.map (fun x -> let r = f x in (r, sample ())) xs in
    (List.map fst rs, first :: List.map snd rs)
  end

(** The factor that scales a time measured while [samples] were taken to
    the reference host: their median, so that a sample disturbed by a
    preemption does not count; 1 when there are none. *)
let scale samples = if samples = [] then 1.0 else nominal_s /. Common.median samples
