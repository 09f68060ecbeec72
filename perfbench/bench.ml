(** The benchmark executable.  Runs one workload for a measured period and prints,
    as the last line of stdout, one JSON object with the keys [correct],
    [attempted], [failed] and [metrics].  [perfbench/run.py] builds this
    executable and is the command to use; see its docstring.

    With [--trace 0] the metrics are the end-to-end ones, measured with
    tracing off on the library's own path: several set-ups (median) and
    then passes over the workload's items until [--seconds] is spent
    (medians over the passes).  Their times are scaled to a reference
    host's speed by calibration samples taken around the set-ups and the
    items ([Calib]); the provenance line keeps the scale and the raw wall
    time.  With [--trace 1] the
    metrics are the per-layer ones: rounds of one untraced and one traced
    pass of the traced call sequence, so [telemetry.overhead_frac] compares
    like with like.

    Every pass's counts (conflicts, iterations, queries, AND nodes, faults,
    PODEM calls) must equal those of the run's other passes and of earlier
    runs of the same build on the same inputs. *)

open Common

let workloads =
  [ Attack_workloads.attack_proof; Attack_workloads.attack_dip_loop;
    Table_workloads.table1; Table_workloads.table2 ]

(* set-ups are repeated at least [min_setup_reps] times and until
   [setup_budget_s] is spent; the last one's fixtures are used *)
let min_setup_reps = 5

let max_setup_reps = 200

let setup_budget_s = 1.0

let sample_every_s = 0.05

(* each traced pass's named layer calls must explain this share of its
   items' time *)
let min_coverage = 0.9

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let solver_counters () =
  (counter "solver.solves", counter "solver.conflicts", counter "solver.propagations")

let mode_name = function Library -> "library" | Sequence -> "untraced" | Traced -> "traced"

type measured = {
  mode : mode;
  pass : pass;
  counts : (string * int) list;  (** the pass's own and the library counters' *)
  solver : int * int * int;  (** deltas of the [solver.*] counters *)
  elapsed : float;  (** the whole pass, reference checks included *)
}

let measure run_pass mode =
  (* every pass starts from the same compacted heap, so neither GC pacing
     nor heap size left over from earlier work (as many set-ups as fit the
     host's speed) lands in its time or its heap figures *)
  Gc.compact ();
  let s0, c0, p0 = solver_counters () and q0 = counter "oracle.queries" in
  let pass, elapsed, _ = timed (fun () -> run_pass mode) in
  Printf.eprintf
    "bench: %s pass: wall %.3fs cpu %.3fs, %d items (p50 %.3fs, max %.3fs), %d failed, scale %.4f\n%!"
    (mode_name mode) pass.wall_s pass.cpu_s (List.length pass.item_s) (median pass.item_s)
    (list_max pass.item_s) pass.failed pass.scale;
  let s1, c1, p1 = solver_counters () and q1 = counter "oracle.queries" in
  {
    mode;
    pass;
    counts =
      add_counts [ [ ("sat.conflicts", c1 - c0); ("core.oracle_queries", q1 - q0) ]; pass.counts ];
    solver = (s1 - s0, c1 - c0, p1 - p0);
    elapsed;
  }

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let commit = ref "unknown" and toy = ref false and record_only = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured period");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N usable cores; the table grids need 2");
      ("--commit", Arg.Set_string commit, "ID source revision, for provenance");
      ("--toy", Arg.Set toy, " toy-size fixtures (smoke test)");
      ("--record", Arg.Set record_only, " re-record the table reference rows and exit");
      ("--reference-dir", Arg.Set_string reference_dir, "DIR where the table reference rows live");
      ("--counts-dir", Arg.Set_string counts_dir, "DIR where runs of this build keep their counts") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [options]";
  let refuse_oversubscribed () =
    if jobs > !nproc then
      die "refusing to run the %d-worker grids on %d usable cores: their figures would not be comparable"
        jobs !nproc
  in
  if !record_only then begin
    refuse_oversubscribed ();
    Table_workloads.record ();
    exit 0
  end;
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  if wl.parallel then refuse_oversubscribed ();
  let jobs = if wl.parallel then jobs else 1 in
  let traced_run = !trace = 1 in
  let setup () = wl.setup ~toy:!toy ~seed:!seed () in
  (* --- set-up: timed several times, the last one is used --- *)
  let setup_s, run_pass, setup_events =
    if traced_run then
      let run_pass, events = with_trace ~traced:wl.trace_setup setup in
      ([], run_pass, events)
    else begin
      (* set-ups alternate with calibration samples, one per
         [sample_every_s] of set-up time at most *)
      let rec reps times samples since =
        Gc.full_major ();
        let r, dt, _ = timed setup in
        let times = dt :: times and since = since +. dt in
        let samples, since =
          if since >= sample_every_s then (Calib.sample () :: samples, 0.0) else (samples, since)
        in
        let n = List.length times in
        if n >= max_setup_reps || (n >= min_setup_reps && sum times >= setup_budget_s)
        then (times, Calib.sample () :: samples, r)
        else reps times samples since
      in
      let times, samples, r = reps [] [ Calib.sample () ] 0.0 in
      (List.map (fun t -> t *. Calib.scale samples) times, r, [])
    end
  in
  (* rounds of [modes] until the period is spent; at least [min_rounds] *)
  let modes = if traced_run then [ Sequence; Traced ] else [ Library ] in
  let min_rounds = 2 in
  let start = now () in
  let rec go rounds =
    let typical = median (List.map (fun r -> sum (List.map (fun m -> m.elapsed) r)) rounds) in
    if List.length rounds >= min_rounds && now () -. start +. typical > !seconds then
      List.concat (List.rev rounds)
    else go (List.map (measure run_pass) modes :: rounds)
  in
  let all = go [] in
  let of_mode mode = List.filter (fun m -> m.mode = mode) all in
  let plain = of_mode (if traced_run then Sequence else Library) and traced = of_mode Traced in
  (* --- correctness --- *)
  let notes = List.concat_map (fun m -> m.pass.notes) all in
  let attempted = List.fold_left (fun a m -> a + List.length m.pass.item_s) 0 all in
  let failed = List.fold_left (fun a m -> a + m.pass.failed) 0 all in
  (* every pass's counts against the first value seen for each: in an
     earlier run of this build on the same inputs, else in this run *)
  let key =
    Printf.sprintf "%s-%d%s" wl.name (variant !seed) (if !toy then "-toy" else "")
  in
  let earlier = stored_counts ~key in
  let expected =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
      earlier
      (List.concat_map (fun m -> m.counts) all)
  in
  let drift =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun (k, v) ->
            let v0 = List.assoc k expected in
            if v0 = v then None
            else
              Some
                (Printf.sprintf "%s pass: %s = %d, %s %d" (mode_name m.mode) k v
                   (if List.mem_assoc k earlier then "an earlier run of this build"
                    else "this run's first pass")
                   v0))
          m.counts)
      all
  in
  if drift = [] && List.length expected > List.length earlier then store_counts ~key expected;
  let layers =
    List.map
      (fun m ->
        let coverage = Layers.coverage (Layers.build m.pass.events) in
        if coverage < min_coverage then
          prerr_endline
            (Printf.sprintf "bench: named layer calls explain only %.1f%% of the items' time"
               (100.0 *. coverage));
        ( coverage,
          Layers.metrics ~jobs ~solver:m.solver
            ~queries:(List.assoc "core.oracle_queries" m.counts)
            ~item_heap_mb:m.pass.item_heap_mb ~coverage
            (Layers.build (setup_events @ m.pass.events)) ))
      traced
  in
  let low_coverage = List.exists (fun (c, _) -> c < min_coverage) layers in
  List.iter (fun s -> prerr_endline ("bench: count drift: " ^ s)) drift;
  List.iter (fun s -> prerr_endline ("bench: FAILED " ^ s)) notes;
  let correct = failed = 0 && drift = [] && not low_coverage in
  (* --- metrics --- *)
  let items_per_pass = match all with m :: _ -> List.length m.pass.item_s | [] -> 0 in
  let med f l = median (List.map f l) in
  (* End-to-end times are scaled to the reference host (see [Calib]) and
     are medians over the passes.  Each item's time is its median over the
     passes, before the order statistics pick single items. *)
  let item_s =
    List.init items_per_pass (fun i ->
        med (fun m -> m.pass.scale *. List.nth m.pass.item_s i) plain)
  in
  let metrics =
    if traced_run then
      let keys = List.map fst (snd (List.hd layers)) in
      List.map (fun k -> (k, Layers.unit_of k, med (fun (_, l) -> List.assoc k l) layers)) keys
      @ [ ( "telemetry.overhead_frac",
            "ratio",
            ratio (med (fun m -> m.pass.wall_s) traced) (med (fun m -> m.pass.wall_s) plain)
            -. 1.0 ) ]
    else
      [ ("setup_s", "s", median setup_s);
        ("wall_s", "s", med (fun m -> m.pass.scale *. m.pass.wall_s) plain);
        ("cpu_s", "s", med (fun m -> m.pass.scale *. m.pass.cpu_s) plain);
        ("item_s.p50", "s", median item_s);
        ("item_s.max", "s", list_max item_s);
        ("peak_heap_mb", "MB", med (fun m -> m.pass.heap_mb) plain) ]
  in
  print_endline
    (json_obj
       [ ( "provenance",
           json_obj
             [ ("workload", json_string wl.name); ("seed", string_of_int !seed);
               ("variant", string_of_int (variant !seed)); ("jobs", string_of_int jobs);
               ("cores", string_of_int (Domain.recommended_domain_count ()));
               ("nproc", string_of_int !nproc); ("ocaml", json_string Sys.ocaml_version);
               ("commit", json_string !commit); ("trace", string_of_int !trace);
               ("toy", string_of_bool !toy); ("setup_reps", string_of_int (List.length setup_s));
               ("untraced_passes", string_of_int (List.length plain));
               ("traced_passes", string_of_int (List.length traced));
               ("items_per_pass", string_of_int items_per_pass);
               ("counts_from_earlier_runs", string_of_int (List.length earlier));
               ("scale", json_float (med (fun m -> m.pass.scale) plain));
               ("raw_wall_s", json_float (med (fun m -> m.pass.wall_s) plain));
               ("fail_frac", json_float (ratio (float_of_int failed) (float_of_int attempted)))
             ] ) ]);
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (k, u, v) -> (k, json_obj [ ("value", json_float v); ("unit", json_string u) ]))
                metrics) ) ])
