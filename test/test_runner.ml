(** The experiment-execution engine: deterministic sharding, the Domain
    pool, the JSONL journal (including crash recovery) and resume. *)

open Util
module Task = Orap_runner.Task
module Pool = Orap_runner.Pool
module Journal = Orap_runner.Journal
module Progress = Orap_runner.Progress
module Runner = Orap_runner.Runner
module E = Orap_experiments

(* --- task: hashing and seed derivation --- *)

let test_task_hashing () =
  (* FNV-1a 64-bit reference vectors *)
  check Alcotest.string "fnv empty" "cbf29ce484222325" (Task.hash_hex "");
  check Alcotest.string "fnv 'a'" "af63dc4c8601ec8c" (Task.hash_hex "a");
  check Alcotest.bool "key mixes root seed" true
    (Task.cell_key ~root_seed:1 ~id:"x" <> Task.cell_key ~root_seed:2 ~id:"x");
  check Alcotest.bool "key mixes id" true
    (Task.cell_key ~root_seed:1 ~id:"x" <> Task.cell_key ~root_seed:1 ~id:"y");
  let s1 = Task.derive_seed ~root_seed:7 ~id:"cell-a" in
  let s2 = Task.derive_seed ~root_seed:7 ~id:"cell-b" in
  check Alcotest.bool "seeds non-negative" true (s1 >= 0 && s2 >= 0);
  check Alcotest.bool "seeds differ per cell" true (s1 <> s2);
  check Alcotest.int "derivation is stable" s1
    (Task.derive_seed ~root_seed:7 ~id:"cell-a");
  let cells = Task.grid ~root_seed:3 ~id:string_of_int [ 10; 20; 30 ] in
  check Alcotest.(list int) "grid preserves order" [ 0; 1; 2 ]
    (List.map (fun c -> c.Task.index) cells)

(* --- pool --- *)

let test_pool_matches_serial () =
  let items = Array.init 100 (fun i -> i) in
  let f _ x = (x * x) + 1 in
  let serial = Array.map (fun x -> Ok (f 0 x)) items in
  List.iter
    (fun jobs ->
      let got = Pool.map ~jobs f items in
      check Alcotest.bool
        (Printf.sprintf "jobs=%d equals serial" jobs)
        true
        (got = serial))
    [ 1; 2; 4; 7 ]

let test_pool_isolates_exceptions () =
  let items = Array.init 10 (fun i -> i) in
  let rs =
    Pool.map ~jobs:4 (fun _ x -> if x = 5 then failwith "boom" else x) items
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 5, Error (Failure m) -> check Alcotest.string "message" "boom" m
      | 5, _ -> Alcotest.fail "index 5 should have failed"
      | i, Ok v -> check Alcotest.int "value" i v
      | _, Error _ -> Alcotest.fail "unexpected error")
    rs

let test_pool_on_result () =
  let hits = Atomic.make 0 in
  let rs =
    Pool.map ~jobs:4
      ~on_result:(fun _ _ -> Atomic.incr hits)
      (fun _ x -> x)
      (Array.init 37 (fun i -> i))
  in
  check Alcotest.int "one callback per item" 37 (Atomic.get hits);
  check Alcotest.int "all ok" 37
    (Array.fold_left (fun n r -> match r with Ok _ -> n + 1 | _ -> n) 0 rs)

(* two items that each wait for the other to start run on two domains at
   once; the ids of the domains that ran them *)
let pool_domains () =
  let arrived = Atomic.make 0 in
  let rs =
    Pool.map ~jobs:2
      (fun _ () ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done;
        (Domain.self () :> int))
      [| (); () |]
  in
  List.sort compare
    (Array.to_list (Array.map (function Ok id -> id | Error e -> raise e) rs))

let test_pool_reuses_domains () =
  let first = pool_domains () in
  check Alcotest.int "two domains" 2 (List.length (List.sort_uniq compare first));
  check Alcotest.(list int) "the next call runs on the same domains" first
    (pool_domains ())

(* --- journal --- *)

let temp_path () = Filename.temp_file "orap_journal" ".jsonl"

let test_journal_roundtrip () =
  let path = temp_path () in
  let j = Journal.open_append path in
  Journal.append j ~key:"k1" ~id:"plain" ~data:"v1";
  Journal.append j ~key:"k2" ~id:"with\ttab \"quotes\" \\ and\nnewline"
    ~data:"\x01control";
  Journal.close j;
  (match Journal.load path with
  | [ e1; e2 ] ->
    check Alcotest.string "key 1" "k1" e1.Journal.key;
    check Alcotest.string "data 1" "v1" e1.Journal.data;
    check Alcotest.string "id 2 escapes survive"
      "with\ttab \"quotes\" \\ and\nnewline" e2.Journal.id;
    check Alcotest.string "data 2 control char" "\x01control" e2.Journal.data
  | l -> Alcotest.fail (Printf.sprintf "expected 2 entries, got %d" (List.length l)));
  Sys.remove path

let test_journal_missing_file () =
  check Alcotest.int "missing journal is empty" 0
    (List.length (Journal.load "/nonexistent/journal.jsonl"))

let test_journal_crash_truncation () =
  let path = temp_path () in
  let j = Journal.open_append path in
  for i = 1 to 5 do
    Journal.append j ~key:(Printf.sprintf "k%d" i) ~id:"cell" ~data:"d"
  done;
  Journal.close j;
  (* simulate a crash during the final append: chop bytes mid-line *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 7);
  Unix.close fd;
  let entries = Journal.load path in
  check Alcotest.int "valid prefix recovered" 4 (List.length entries);
  (* appends after recovery coexist with the corrupt line *)
  let j = Journal.open_append path in
  Journal.append j ~key:"k5" ~id:"cell" ~data:"d";
  Journal.close j;
  check Alcotest.int "recovered + reappended" 5
    (List.length (Journal.load path));
  Sys.remove path

let test_journal_rejects_garbage () =
  check Alcotest.bool "not json" true (Journal.parse_line "hello" = None);
  check Alcotest.bool "half object" true
    (Journal.parse_line "{\"key\":\"a\",\"id\":\"b\",\"da" = None);
  check Alcotest.bool "trailing junk" true
    (Journal.parse_line
       "{\"key\":\"a\",\"id\":\"b\",\"data\":\"c\"}x" = None);
  check Alcotest.bool "missing field" true
    (Journal.parse_line "{\"key\":\"a\",\"id\":\"b\"}" = None);
  match Journal.parse_line (Journal.format_line ~key:"k" ~id:"i" ~data:"d") with
  | Some e ->
    check Alcotest.string "format/parse key" "k" e.Journal.key;
    check Alcotest.string "format/parse data" "d" e.Journal.data
  | None -> Alcotest.fail "own format must parse"

(* a journal line as the format has always written it: any change to the
   escaping or the field order breaks resuming an older journal *)
let test_journal_pinned_line () =
  let line =
    {|{"key":"0123456789abcdef","id":"with\ttab \"quotes\" \\ and\nnewline","data":"\u0001control"}|}
  in
  let entry =
    {
      Journal.key = "0123456789abcdef";
      id = "with\ttab \"quotes\" \\ and\nnewline";
      data = "\x01control";
    }
  in
  check Alcotest.string "format_line writes the pinned bytes" line
    (Journal.format_line ~key:entry.Journal.key ~id:entry.Journal.id
       ~data:entry.Journal.data);
  let path = temp_path () in
  Out_channel.with_open_bin path (fun oc -> output_string oc (line ^ "\n"));
  (match Journal.load path with
  | [ e ] -> check Alcotest.bool "load reads the same entry" true (e = entry)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  Sys.remove path

(* --- progress --- *)

let test_progress_counters () =
  let p = Progress.create ~enabled:false ~total:10 ~cached:3 () in
  Progress.tick p ~tag:"exact";
  Progress.tick p ~tag:"timeout";
  Progress.tick p ~tag:"exact";
  check Alcotest.int "completed" 6 (Progress.completed p);
  let line = Progress.line p in
  check Alcotest.bool "line shows done/total" true (contains line "6/10");
  check Alcotest.bool "line shows cached" true (contains line "(3 cached)");
  check Alcotest.bool "line tallies outcomes" true (contains line "2 exact");
  check Alcotest.bool "line keeps first-seen order" true (contains line "1 timeout");
  check Alcotest.string "tally counts in first-seen order" "2 exact, 1 timeout"
    (Progress.tally [ "exact"; "timeout"; "exact" ]);
  check Alcotest.string "empty tally" "" (Progress.tally [])

let test_progress_rate_excludes_replay () =
  (* regression: on a resumed run the rate once counted journal replay
     time, so the ETA was inflated by however long the replay took.  The
     runner creates the progress once 80 cached cells are replayed; the
     rate counts computed cells only, over the time since then *)
  let now = ref 150.0 in
  let p =
    Progress.create ~enabled:false ~now:(fun () -> !now) ~total:100 ~cached:80 ()
  in
  now := 160.0;
  (* 10s of compute produced 5 cells: 0.5 cells/s, 15 left -> ETA 30s *)
  for _ = 1 to 5 do
    Progress.tick p ~tag:"exact"
  done;
  check (Alcotest.float 1e-6) "rate is per compute second" 0.5
    (Progress.rate p);
  (match Progress.eta_s p with
  | Some eta -> check (Alcotest.float 1e-6) "eta ignores replay time" 30.0 eta
  | None -> Alcotest.fail "rate is measurable, eta must be Some");
  (* at a constant rate the ETA must shrink monotonically as cells land *)
  let last = ref infinity in
  for _ = 1 to 10 do
    now := !now +. 2.0;
    Progress.tick p ~tag:"exact";
    match Progress.eta_s p with
    | Some eta ->
      check Alcotest.bool "eta non-increasing at constant rate" true
        (eta <= !last +. 1e-9);
      last := eta
    | None -> Alcotest.fail "eta must stay measurable"
  done;
  (* all cells done: ETA pins to zero *)
  for _ = 1 to 5 do
    Progress.tick p ~tag:"exact"
  done;
  check Alcotest.bool "done -> Some 0" true (Progress.eta_s p = Some 0.0)

(* --- runner: map_grid --- *)

let int_codec : int Runner.codec =
  { encode = string_of_int; decode = int_of_string_opt }

let test_map_grid_order_and_parallel () =
  let items = List.init 23 (fun i -> i) in
  let f ~seed:_ x = 3 * x in
  let serial =
    Runner.map_grid
      ~options:{ Runner.default_options with Runner.jobs = 1 }
      ~id:string_of_int ~f items
  in
  let parallel =
    Runner.map_grid
      ~options:{ Runner.default_options with Runner.jobs = 4 }
      ~id:string_of_int ~f items
  in
  check Alcotest.(list int) "parallel = serial" serial parallel;
  check Alcotest.(list int) "input order" (List.map (fun x -> 3 * x) items)
    parallel

let test_map_grid_seeds_schedule_independent () =
  let items = List.init 16 (fun i -> i) in
  let f ~seed _ = seed in
  let run jobs =
    Runner.map_grid
      ~options:{ Runner.default_options with Runner.jobs; root_seed = 42 }
      ~id:string_of_int ~f items
  in
  check Alcotest.bool "derived seeds identical at any job count" true
    (run 1 = run 4)

let test_map_grid_resume_skips_journaled () =
  let path = temp_path () in
  Sys.remove path;
  let items = List.init 8 (fun i -> i) in
  let computed = Atomic.make 0 in
  let f ~seed:_ x =
    Atomic.incr computed;
    x * 7
  in
  let options jobs =
    { Runner.default_options with Runner.jobs; journal = Some path;
      resume = true; root_seed = 5 }
  in
  let first =
    Runner.map_grid ~options:(options 2) ~codec:int_codec ~id:string_of_int ~f
      items
  in
  check Alcotest.int "all cells computed once" 8 (Atomic.get computed);
  (* crash simulation: truncate the journal inside its last line *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  let resumed =
    Runner.map_grid ~options:(options 2) ~codec:int_codec ~id:string_of_int ~f
      items
  in
  check Alcotest.int "only the corrupted cell re-ran" 9 (Atomic.get computed);
  check Alcotest.(list int) "resumed run returns the same rows" first resumed;
  (* a third run finds a complete journal and computes nothing *)
  let again =
    Runner.map_grid ~options:(options 1) ~codec:int_codec ~id:string_of_int ~f
      items
  in
  check Alcotest.int "fully journaled: zero recomputation" 9
    (Atomic.get computed);
  check Alcotest.(list int) "journal replay preserves grid order" first again;
  Sys.remove path

(* [f ()]'s stderr, from the file descriptor up *)
let capture_stderr f =
  let path = temp_path () in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved);
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  text

(* The progress line of a resumed [map_grid] counts the replayed cells as
   cached and its rate over the time since the replay ended.  The decoder
   sleeps, so the replay of 80 journaled cells takes at least 0.64 s, while
   the 20 cells left take next to none: a progress that started its clock
   before the replay would report at most 20 / 0.64 = 31 cells/s. *)
let test_map_grid_progress_excludes_replay () =
  let path = temp_path () in
  Sys.remove path;
  let options =
    { Runner.default_options with Runner.jobs = 1; journal = Some path;
      resume = true; root_seed = 9 }
  in
  let f ~seed:_ x = x in
  ignore
    (Runner.map_grid ~options ~codec:int_codec ~id:string_of_int ~f
       (List.init 80 Fun.id));
  let replay_s = ref 0.0 in
  let slow_codec =
    { int_codec with
      Runner.decode =
        (fun s ->
          let t0 = Unix.gettimeofday () in
          Unix.sleepf 0.008;
          replay_s := !replay_s +. (Unix.gettimeofday () -. t0);
          int_codec.Runner.decode s) }
  in
  let err =
    capture_stderr (fun () ->
        ignore
          (Runner.map_grid
             ~options:{ options with Runner.progress = true }
             ~codec:slow_codec ~id:string_of_int ~f (List.init 100 Fun.id)))
  in
  Sys.remove path;
  let last =
    match List.rev (String.split_on_char '\n' (String.trim err)) with
    | l :: _ -> l
    | [] -> Alcotest.fail "no progress line"
  in
  if not (contains last "100/100 cells" && contains last "(80 cached)") then
    Alcotest.failf "final line %S does not count the 80 replayed cells" last;
  let rate = Scanf.sscanf last "[runner] %d/%d cells %f cells/s" (fun _ _ r -> r) in
  let replay_rate = 20.0 /. !replay_s in
  if rate < 2.0 *. replay_rate then
    Alcotest.failf "rate %.1f cells/s is not above twice the %.1f cells/s of a clock \
                    started before the %.2f s replay" rate replay_rate !replay_s

let test_map_grid_journal_requires_codec () =
  Alcotest.check_raises "journal without codec"
    (Invalid_argument "Runner.map_grid: a journal requires a result codec")
    (fun () ->
      ignore
        (Runner.map_grid
           ~options:
             { Runner.default_options with Runner.journal = Some "/tmp/x" }
           ~id:string_of_int
           ~f:(fun ~seed:_ x -> x)
           [ 1 ]))

let test_map_grid_propagates_failure () =
  let path = temp_path () in
  Sys.remove path;
  let options =
    { Runner.default_options with Runner.jobs = 2; journal = Some path;
      resume = true }
  in
  let boom ~seed:_ x = if x = 3 then failwith "cell down" else x in
  (try
     ignore
       (Runner.map_grid ~options ~codec:int_codec ~id:string_of_int ~f:boom
          (List.init 6 (fun i -> i)));
     Alcotest.fail "expected failure"
   with Failure m -> check Alcotest.string "first error surfaces" "cell down" m);
  (* the other five cells were still journaled before the raise *)
  check Alcotest.int "completed cells checkpointed" 5
    (List.length (Journal.load path));
  Sys.remove path

(* --- satellite: robustness grid determinism, jobs=1 vs jobs=4 --- *)

let test_robustness_grid_deterministic () =
  let params =
    {
      E.Robustness.default_params with
      E.Robustness.num_gates = 80;
      key_size = 8;
      noise_levels = [ 0.0; 0.05 ];
      query_budgets = [ 0; 300 ];
      trials = 2;
      attacks =
        List.filter
          (fun a -> List.mem a.Orap_attacks.Key_recovery.slug [ "hill"; "sens" ])
          Orap_attacks.Key_recovery.all;
      max_iterations = 32;
      wall_clock_s = 120.0 (* generous: no timeout nondeterminism *);
    }
  in
  let run jobs =
    E.Robustness.run ~params
      ~options:{ Runner.default_options with Runner.jobs }
      ()
  in
  let canon rows = List.sort compare (List.map E.Robustness.canonical rows) in
  let r1 = canon (run 1) and r4 = canon (run 4) in
  check Alcotest.int "8 cells" 8 (List.length r1);
  check Alcotest.(list string) "jobs=1 and jobs=4 rows byte-identical" r1 r4

let suite =
  ( "runner",
    [
      tc "task hashing and seed derivation" `Quick test_task_hashing;
      tc "pool matches serial map" `Quick test_pool_matches_serial;
      tc "pool isolates exceptions" `Quick test_pool_isolates_exceptions;
      tc "pool on_result callback" `Quick test_pool_on_result;
      tc "pool reuses its worker domains" `Quick test_pool_reuses_domains;
      tc "journal round-trip" `Quick test_journal_roundtrip;
      tc "journal missing file" `Quick test_journal_missing_file;
      tc "journal crash truncation" `Quick test_journal_crash_truncation;
      tc "journal rejects garbage" `Quick test_journal_rejects_garbage;
      tc "journal reads a pinned line" `Quick test_journal_pinned_line;
      tc "progress counters" `Quick test_progress_counters;
      tc "progress rate excludes cache replay" `Quick
        test_progress_rate_excludes_replay;
      tc "map_grid order + parallel" `Quick test_map_grid_order_and_parallel;
      tc "map_grid seeds schedule-independent" `Quick
        test_map_grid_seeds_schedule_independent;
      tc "map_grid resume skips journaled cells" `Quick
        test_map_grid_resume_skips_journaled;
      tc "map_grid progress rate excludes journal replay" `Quick
        test_map_grid_progress_excludes_replay;
      tc "map_grid journal requires codec" `Quick
        test_map_grid_journal_requires_codec;
      tc "map_grid checkpoints before failing" `Quick
        test_map_grid_propagates_failure;
      tc "robustness grid deterministic at any job count" `Slow
        test_robustness_grid_deterministic;
    ] )
