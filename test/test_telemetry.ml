(** The telemetry subsystem: span emission through the sinks, the strict
    JSONL trace parser (round-trip against [event_to_json]), and the
    metrics registry (counters from multiple domains, log-bucket
    histograms, JSON snapshots). *)

open Util
module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics
module Trace = Orap_telemetry.Trace

let tmp_file suffix =
  Filename.temp_file "orap_telemetry_test" suffix

(* --- spans and sinks --- *)

let test_disabled_is_identity () =
  check Alcotest.bool "no sink installed" false (Telemetry.enabled ());
  let r = Telemetry.span "unused" (fun () -> 41 + 1) in
  check Alcotest.int "span is f () when disabled" 42 r

let test_memory_sink_captures_nesting () =
  let sink, events = Telemetry.memory () in
  Telemetry.with_sink sink (fun () ->
      check Alcotest.bool "enabled under with_sink" true (Telemetry.enabled ());
      let r =
        Telemetry.span "outer"
          ~args:[ ("layer", Telemetry.String "top") ]
          (fun () ->
            Telemetry.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
            7)
      in
      check Alcotest.int "span returns f's value" 7 r);
  check Alcotest.bool "shut down after with_sink" false (Telemetry.enabled ());
  match events () with
  | [ inner; outer ] ->
    (* spans are emitted on exit, so the inner span completes first *)
    check Alcotest.string "inner name" "inner" inner.Telemetry.name;
    check Alcotest.string "outer name" "outer" outer.Telemetry.name;
    check Alcotest.bool "both are Complete events" true
      (inner.Telemetry.phase = Telemetry.Complete
      && outer.Telemetry.phase = Telemetry.Complete);
    check Alcotest.bool "outer contains inner" true
      (outer.Telemetry.ts_us <= inner.Telemetry.ts_us
      && outer.Telemetry.ts_us +. outer.Telemetry.dur_us
         >= inner.Telemetry.ts_us +. inner.Telemetry.dur_us);
    check Alcotest.bool "entry args preserved" true
      (List.assoc_opt "layer" outer.Telemetry.args
      = Some (Telemetry.String "top"))
  | evs ->
    Alcotest.failf "expected exactly 2 events, got %d" (List.length evs)

let test_span_exit_args_and_exceptions () =
  let sink, events = Telemetry.memory () in
  Telemetry.with_sink sink (fun () ->
      let r =
        Telemetry.span "work"
          ~exit_args:(fun n -> [ ("result", Telemetry.Int n) ])
          (fun () -> 13)
      in
      check Alcotest.int "value passes through" 13 r;
      match
        Telemetry.span "boom" (fun () -> failwith "expected")
      with
      | () -> Alcotest.fail "span must re-raise"
      | exception Failure _ -> ());
  match events () with
  | [ work; boom ] ->
    check Alcotest.bool "exit_args derived from result" true
      (List.assoc_opt "result" work.Telemetry.args
      = Some (Telemetry.Int 13));
    check Alcotest.bool "failed span carries an error arg" true
      (match List.assoc_opt "error" boom.Telemetry.args with
      | Some (Telemetry.String _) -> true
      | _ -> false)
  | evs ->
    Alcotest.failf "expected exactly 2 events, got %d" (List.length evs)

let test_with_sink_shuts_down_on_raise () =
  let sink, _ = Telemetry.memory () in
  (match Telemetry.with_sink sink (fun () -> failwith "boom") with
  | () -> Alcotest.fail "with_sink must re-raise"
  | exception Failure _ -> ());
  check Alcotest.bool "disabled after the exception" false
    (Telemetry.enabled ())

(* --- JSONL sink <-> strict parser round-trip --- *)

let test_jsonl_roundtrip () =
  let path = tmp_file ".jsonl" in
  Telemetry.with_sink (Telemetry.jsonl path) (fun () ->
      Telemetry.span "solver.solve"
        ~args:
          [
            ("note", Telemetry.String "quote \" slash \\ newline \n tab \t");
            ("conflicts", Telemetry.Int 37);
            ("ratio", Telemetry.Float 0.25);
            ("sat", Telemetry.Bool true);
          ]
        (fun () -> ());
      Telemetry.span "checkpoint" (fun () -> ());
      Telemetry.span "queries" ~args:[ ("value", Telemetry.Float 12.5) ] (fun () -> ()));
  (match Trace.validate_file path with
  | Ok n -> check Alcotest.int "all three lines validate" 3 n
  | Error e -> Alcotest.failf "validate: %a" Trace.pp_error e);
  (match Trace.read_file path with
  | Ok [ span; checkpoint; queries ] ->
    check Alcotest.string "span name" "solver.solve" span.Telemetry.name;
    check Alcotest.bool "escaped string survives the round trip" true
      (List.assoc_opt "note" span.Telemetry.args
      = Some (Telemetry.String "quote \" slash \\ newline \n tab \t"));
    check Alcotest.bool "int arg" true
      (List.assoc_opt "conflicts" span.Telemetry.args
      = Some (Telemetry.Int 37));
    check Alcotest.bool "float arg" true
      (List.assoc_opt "ratio" span.Telemetry.args
      = Some (Telemetry.Float 0.25));
    check Alcotest.bool "bool arg" true
      (List.assoc_opt "sat" span.Telemetry.args = Some (Telemetry.Bool true));
    check Alcotest.string "second span" "checkpoint" checkpoint.Telemetry.name;
    check Alcotest.bool "arg-less span has no args" true
      (checkpoint.Telemetry.args = []);
    check Alcotest.bool "third span's float arg" true
      (queries.Telemetry.args = [ ("value", Telemetry.Float 12.5) ])
  | Ok evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)
  | Error e -> Alcotest.failf "read: %a" Trace.pp_error e);
  Sys.remove path

let test_event_to_json_parses_back () =
  let ev =
    {
      Telemetry.phase = Telemetry.Complete;
      name = "oracle.query";
      ts_us = 1234.5;
      dur_us = 0.75;
      tid = 3;
      args = [ ("bits", Telemetry.Int 16) ];
    }
  in
  match Trace.parse_line (Telemetry.event_to_json ev) with
  | Ok e ->
    check Alcotest.string "name" ev.Telemetry.name e.Telemetry.name;
    check (Alcotest.float 1e-9) "ts" ev.Telemetry.ts_us e.Telemetry.ts_us;
    check (Alcotest.float 1e-9) "dur" ev.Telemetry.dur_us e.Telemetry.dur_us;
    check Alcotest.int "tid" ev.Telemetry.tid e.Telemetry.tid;
    check Alcotest.bool "args" true (e.Telemetry.args = ev.Telemetry.args)
  | Error reason -> Alcotest.failf "own output must parse: %s" reason

let test_parser_rejects_deviations () =
  let ok = {|{"ph":"X","name":"a","ts":1.000,"dur":2.000,"pid":1,"tid":0}|} in
  check Alcotest.bool "baseline line parses" true
    (Result.is_ok (Trace.parse_line ok));
  let rejects what line =
    check Alcotest.bool what true (Result.is_error (Trace.parse_line line))
  in
  rejects "blank line" "";
  rejects "trailing bytes" (ok ^ " ");
  rejects "unknown key"
    {|{"ph":"X","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0,"cat":"x"}|};
  rejects "span without dur" {|{"ph":"X","name":"a","ts":1.0,"pid":1,"tid":0}|};
  rejects "instant phase is unknown"
    {|{"ph":"i","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0}|};
  rejects "counter phase is unknown"
    {|{"ph":"C","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0,"args":{"value":1.0}}|};
  rejects "unknown phase" {|{"ph":"B","name":"a","ts":1.0,"pid":1,"tid":0}|};
  rejects "wrong pid"
    {|{"ph":"X","name":"a","ts":1.0,"dur":2.0,"pid":2,"tid":0}|};
  rejects "fractional tid"
    {|{"ph":"X","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0.5}|};
  rejects "negative ts"
    {|{"ph":"X","name":"a","ts":-1.0,"dur":2.0,"pid":1,"tid":0}|};
  rejects "empty args object"
    {|{"ph":"X","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0,"args":{}}|};
  rejects "nested object in args"
    {|{"ph":"X","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0,"args":{"x":{}}}|};
  rejects "duplicate key"
    {|{"ph":"X","ph":"X","name":"a","ts":1.0,"dur":2.0,"pid":1,"tid":0}|};
  rejects "bad escape"
    {|{"ph":"X","name":"a\q","ts":1.0,"dur":2.0,"pid":1,"tid":0}|};
  rejects "not an object" {|[1,2,3]|}

(* events as the sink emits them, an enclosing span after its children *)
let test_summary_self_time () =
  let ev ?(tid = 0) name ts dur =
    { Telemetry.phase = Complete; name; ts_us = ts; dur_us = dur; tid; args = [] }
  in
  let totals =
    Trace.summary
      [
        ev "leaf" 10.0 20.0;
        ev "leaf" 40.0 10.0;
        ev "mid" 5.0 50.0;
        (* the enclosing span starts with its first child, on another domain
           a span of the same name overlaps it without nesting *)
        ev "top" 5.0 95.0;
        ev ~tid:1 "mid" 0.0 30.0;
        ev "after" 100.0 1.0;
      ]
    |> List.map (fun (t : Trace.span_total) ->
           (t.name, t.count, t.total_us, t.self_us))
  in
  check
    Alcotest.(list (pair string (pair int (pair (float 1e-9) (float 1e-9)))))
    "count, total and self by name, most self first"
    [ ("mid", (2, (80.0, 50.0))); ("top", (1, (95.0, 45.0)));
      ("leaf", (2, (30.0, 30.0))); ("after", (1, (1.0, 1.0))) ]
    (List.map (fun (n, c, t, s) -> (n, (c, (t, s)))) totals)

let test_to_chrome_wraps_array () =
  let src = tmp_file ".jsonl" in
  let dst = tmp_file ".json" in
  Telemetry.with_sink (Telemetry.jsonl src) (fun () ->
      Telemetry.span "a" (fun () -> ());
      Telemetry.span "b" (fun () -> ()));
  (match Trace.to_chrome ~src ~dst with
  | Ok n -> check Alcotest.int "two events converted" 2 n
  | Error e -> Alcotest.failf "to_chrome: %a" Trace.pp_error e);
  let ic = open_in_bin dst in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  check Alcotest.bool "JSON array shape" true
    (String.length body > 2
    && body.[0] = '['
    && String.sub body (len - 2) 2 = "]\n");
  check Alcotest.bool "events are inside" true
    (contains body "\"name\":\"a\"" && contains body "\"name\":\"b\"");
  Sys.remove src;
  Sys.remove dst

(* --- metrics --- *)

let test_counters_and_interning () =
  Metrics.reset ();
  let c = Metrics.counter "t.hits" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "incr + add" 5 (Metrics.value c);
  check Alcotest.int "interned by name" 5
    (Metrics.value (Metrics.counter "t.hits"));
  check Alcotest.bool "kind clash raises" true
    (match Metrics.histogram "t.hits" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Metrics.reset ();
  check Alcotest.int "reset re-interns at zero" 0
    (Metrics.value (Metrics.counter "t.hits"))

let test_counter_from_domains () =
  Metrics.reset ();
  let per_domain = 2000 in
  let worker () =
    (* re-intern inside the domain, as instrumentation sites do *)
    let c = Metrics.counter "t.parallel" in
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check Alcotest.int "no lost increments" (4 * per_domain)
    (Metrics.value (Metrics.counter "t.parallel"))

let test_histogram_buckets_and_quantiles () =
  Metrics.reset ();
  let h = Metrics.histogram "t.latency_s" in
  (* latencies spanning five decades, like real oracle queries *)
  let obs = [ 1e-6; 2e-6; 1e-4; 1e-3; 1e-3; 0.1; 2.0 ] in
  List.iter (Metrics.observe h) obs;
  let s = Metrics.histogram_snapshot h in
  check Alcotest.int "count" (List.length obs) s.Metrics.count;
  check (Alcotest.float 1e-9) "sum" (List.fold_left ( +. ) 0.0 obs)
    s.Metrics.sum;
  check (Alcotest.float 1e-9) "max" 2.0 s.Metrics.max;
  check Alcotest.int "bucket counts add up" (List.length obs)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Metrics.buckets);
  check Alcotest.bool "bucket bounds ascend" true
    (let bounds = List.map fst s.Metrics.buckets in
     List.sort compare bounds = bounds);
  (* every observation is <= its bucket's inclusive upper bound, and the
     log-scaled approximation stays within one power of two *)
  let p50 = Metrics.quantile h 0.5 in
  check Alcotest.bool "p50 brackets the median" true
    (p50 >= 1e-3 && p50 <= 2e-3);
  let p99 = Metrics.quantile h 0.99 in
  check Alcotest.bool "p99 brackets the max" true (p99 >= 2.0 && p99 <= 4.0);
  check Alcotest.bool "mean is exact (from sum)" true
    (Float.abs (Metrics.mean h -. (s.Metrics.sum /. float_of_int s.Metrics.count))
    < 1e-12)

let test_snapshot_json_shape () =
  Metrics.reset ();
  check Alcotest.string "empty registry"
    {|{"counters":{},"histograms":{}}|}
    (Metrics.snapshot_json ());
  Metrics.add (Metrics.counter "b.n") 2;
  Metrics.add (Metrics.counter "a.n") 1;
  Metrics.incr (Metrics.counter "c.\"quoted\"");
  Metrics.observe (Metrics.histogram "h.lat_s") 0.25;
  let s = Metrics.snapshot_json () in
  check Alcotest.string "snapshot is deterministic" s (Metrics.snapshot_json ());
  check Alcotest.bool "keys sorted" true
    (let a = String.index s 'a' and b = String.index s 'b' in
     a < b);
  List.iter
    (fun frag -> check Alcotest.bool frag true (contains s frag))
    [
      {|"a.n":1|};
      {|"b.n":2|};
      {|"c.\"quoted\"":1|};
      {|"count":1|};
      (* 0.25 lands in the bucket whose upper bound is 0.5 *)
      {|"p50":0.5,"p99":0.5|};
      {|"buckets":[[|};
    ];
  let path = tmp_file ".json" in
  Metrics.write_json path;
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check Alcotest.string "write_json = snapshot + newline" (s ^ "\n") body;
  Sys.remove path;
  Metrics.reset ()

let suite =
  ( "telemetry",
    [
      tc "disabled span is identity" `Quick test_disabled_is_identity;
      tc "memory sink captures nesting" `Quick test_memory_sink_captures_nesting;
      tc "exit args and exceptions" `Quick test_span_exit_args_and_exceptions;
      tc "with_sink shuts down on raise" `Quick test_with_sink_shuts_down_on_raise;
      tc "jsonl sink round-trips strictly" `Quick test_jsonl_roundtrip;
      tc "event_to_json parses back" `Quick test_event_to_json_parses_back;
      tc "parser rejects deviations" `Quick test_parser_rejects_deviations;
      tc "to_chrome wraps a JSON array" `Quick test_to_chrome_wraps_array;
      tc "summary: self time by span name" `Quick test_summary_self_time;
      tc "counters and interning" `Quick test_counters_and_interning;
      tc "counter increments across domains" `Quick test_counter_from_domains;
      tc "histogram buckets and quantiles" `Quick
        test_histogram_buckets_and_quantiles;
      tc "snapshot_json shape" `Quick test_snapshot_json_shape;
    ] )
