(** Per-layer breakdown of one traced pass.

    Spans are nested by containment on each domain; a span's self time is
    its duration minus the durations of its direct children.  Each span
    name maps to one layer (one [lib/] directory): the spans the library
    already emits ([solver.solve], [*.run], [*.iteration], [oracle.query],
    [synth.*], [runner.cell]) and the spans the benchmark wraps around its
    own calls into a layer ([benchgen.generate], [locking.lock], ...). *)

module T = Orap_telemetry.Telemetry
open Common

type span = {
  name : string;
  ts : float;  (** microseconds *)
  dur : float;  (** microseconds *)
  tid : int;
  seq : int;  (** emission order: an enclosing span is emitted last *)
  args : (string * T.value) list;
  mutable self : float;
  mutable parent : span option;
}

(* slack for float rounding of [ts + dur], in microseconds *)
let eps = 0.01

let build (events : T.event list) : span list =
  let spans =
    List.filter (fun (e : T.event) -> e.T.phase = T.Complete) events
    |> List.mapi (fun seq (e : T.event) ->
           { name = e.T.name; ts = e.T.ts_us; dur = e.T.dur_us; tid = e.T.tid;
             seq; args = e.T.args; self = e.T.dur_us; parent = None })
  in
  let tids = List.sort_uniq compare (List.map (fun s -> s.tid) spans) in
  List.iter
    (fun tid ->
      let a = Array.of_list (List.filter (fun s -> s.tid = tid) spans) in
      Array.stable_sort
        (fun x y ->
          match compare x.ts y.ts with
          | 0 -> (
            match compare y.dur x.dur with 0 -> compare y.seq x.seq | c -> c)
          | c -> c)
        a;
      let stack = ref [] in
      Array.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | p :: rest
              when s.ts >= p.ts +. p.dur || s.ts +. s.dur > p.ts +. p.dur +. eps
              ->
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | p :: _ ->
            s.parent <- Some p;
            p.self <- p.self -. s.dur
          | [] -> ());
          stack := s :: !stack)
        a)
    tids;
  spans

let layer_of name =
  match String.index_opt name '.' with
  | None -> None
  | Some i -> (
    match String.sub name 0 i with
    | "solver" -> Some "sat"
    | "attacks" | "sat_attack" | "appsat" | "double_dip" -> Some "attacks"
    | "oracle" -> Some "core"
    | ( "benchgen" | "locking" | "sim" | "synth" | "faultsim" | "atpg" | "core"
      | "runner" ) as l ->
      Some l
    | _ -> None)

let is_run s =
  List.mem s.name [ "sat_attack.run"; "appsat.run"; "double_dip.run" ]

let is_iteration s = Filename.extension s.name = ".iteration"

let arg_int key s =
  match List.assoc_opt key s.args with Some (T.Int n) -> n | _ -> 0

let arg_is key v s = List.assoc_opt key s.args = Some v

let rec ancestor p s =
  match s.parent with None -> None | Some q -> if p q then Some q else ancestor p q

let us = 1e-6

(* an item: one attack call, or one grid cell *)
let is_item s = s.name = "attacks.call" || s.name = "runner.cell"

(* Spans that enclose work rather than name one layer call: the items, the
   benchmark's grid span and the attacks' run spans.  Their self time is
   whatever ran inside them without a span of its own. *)
let is_wrapper s = is_item s || is_run s || s.name = "runner.map_grid"

(* Two phases of an attack have no span of their own but sit at fixed
   places in the library's code, so the gaps they fill name them.  The
   attacks build their miter before they open their run span: the gap
   from an attack call's start to its run span's start. *)
let miter_gaps spans =
  List.filter_map
    (fun s ->
      match s.parent with
      | Some p when is_run s && p.name = "attacks.call" -> Some ((s.ts -. p.ts) *. us)
      | _ -> None)
    spans

(* AppSAT and Double DIP add each DIP's IO constraint after its oracle
   query returns, in the run span: the gap from such a query's end to the
   next iteration span.  (The SAT attack does it inside its iteration
   span.) *)
let io_constraint_gaps spans =
  List.concat_map
    (fun r ->
      let kids =
        List.filter (fun s -> match s.parent with Some p -> p == r | None -> false) spans
        |> List.sort (fun a b -> compare a.ts b.ts)
      in
      let rec go = function
        | q :: (next :: _ as rest) when q.name = "oracle.query" && is_iteration next ->
          ((next.ts -. (q.ts +. q.dur)) *. us) :: go rest
        | _ :: rest -> go rest
        | [] -> []
      in
      go kids)
    (List.filter is_run spans)

(** The share of the items' time that named layer calls explain: the self
    time of every layer span but the wrappers, plus the two named attack
    phases, over the items' summed duration.  The attack items make up the
    whole timed region; a grid's time outside its cells is
    [runner.efficiency]'s business. *)
let coverage spans =
  let self_s = List.map (fun s -> s.self *. us) in
  ratio
    (sum (self_s (List.filter (fun s -> layer_of s.name <> None && not (is_wrapper s)) spans))
    +. sum (miter_gaps spans)
    +. sum (io_constraint_gaps spans))
    (sum (List.map (fun s -> s.dur *. us) (List.filter is_item spans)))

(** Every per-layer metric of one traced pass.  [solver] holds the pass's
    deltas of the library's [solver.*] counters (solves, conflicts,
    propagations) and [queries] the delta of [oracle.queries]; [spans] are
    the pass's own (plus, for the attack workloads, those of the traced
    set-up, which feed [benchgen], [locking] and [core.protect_s]). *)
let metrics ~jobs ~solver:(solves, conflicts, propagations) ~queries
    ~item_heap_mb ~coverage (spans : span list) : (string * float) list =
  let named n = List.filter (fun s -> s.name = n) spans in
  let durs l = List.map (fun s -> s.dur *. us) l in
  let total n = sum (durs (named n)) in
  let sum_arg key l = float_of_int (List.fold_left (fun a s -> a + arg_int key s) 0 l) in
  let self_s layer =
    sum
      (List.filter_map
         (fun s -> if layer_of s.name = Some layer then Some (s.self *. us) else None)
         spans)
  in
  let self_where p = sum (List.map (fun s -> s.self *. us) (List.filter p spans)) in
  (* the closing unsat solve of each attack run *)
  let solves_s = named "solver.solve" in
  let runs = List.filter is_run spans in
  let final_proof run =
    List.filter
      (fun s ->
        arg_is "result" (T.String "unsat") s
        && match ancestor is_run s with Some r -> r == run | None -> false)
      solves_s
    |> List.fold_left
         (fun acc s ->
           match acc with Some a when a.ts >= s.ts -> acc | _ -> Some s)
         None
    |> Option.fold ~none:0.0 ~some:(fun s -> s.dur *. us)
  in
  let final_proof_s = sum (List.map final_proof runs) in
  let sat_runs = named "sat_attack.run" in
  let solve_s = sum (durs solves_s) in
  let oracle = durs (named "oracle.query") in
  let hd = named "sim.hd" in
  let hd_s = sum (durs hd) in
  let faults = sum_arg "faults" (named "faultsim.collapse") in
  let podem = named "atpg.podem" in
  let podem_s = sum (durs podem) in
  let podem_calls = float_of_int (List.length podem) in
  let cells = durs (named "runner.cell") in
  let makespan = total "runner.map_grid" in
  [
    ("sat.solve_s", solve_s);
    ("sat.solves", float_of_int solves);
    ("sat.conflicts", float_of_int conflicts);
    ("sat.propagations", float_of_int propagations);
    ("sat.final_proof_s", final_proof_s);
    (* over the whole SAT-attack call, miter construction included *)
    ( "sat.final_proof_share",
      ratio
        (sum (List.map final_proof sat_runs))
        (sum (durs (List.map (fun r -> Option.value r.parent ~default:r) sat_runs))) );
    ("sat.solve_ms.p50", 1e3 *. median (durs solves_s));
    ("sat.props_per_s", ratio (float_of_int propagations) solve_s);
    ("sat.item_heap_mb.max", item_heap_mb);
    ("attacks.self_s", self_s "attacks");
    ("attacks.iterations", sum_arg "iterations" runs);
    ("attacks.miter_build_s", sum (miter_gaps spans));
    (* the DIP loop's own work: iterations and IO constraints, less the
       solves and queries *)
    ("attacks.loop_self_s", self_where is_iteration +. sum (io_constraint_gaps spans));
    ("core.self_s", self_s "core");
    ("core.oracle_queries", float_of_int queries);
    ("core.oracle_query_s", sum oracle);
    ("core.oracle_query_us.p50", 1e6 *. median oracle);
    ("core.protect_s", total "core.protect");
    ("synth.self_s", self_s "synth");
    ("synth.evaluate_s", total "synth.evaluate");
    ("synth.refactor_s", total "synth.refactor");
    ("synth.rewrite_s", total "synth.rewrite");
    ("synth.balance_s", total "synth.balance");
    ("synth.ands_out", sum_arg "ands" (named "synth.evaluate"));
    ("sim.hd_s", hd_s);
    ("sim.gate_words_per_s", ratio (sum_arg "gate_words" hd) hd_s);
    ("locking.lock_s", self_s "locking");
    ("benchgen.generate_s", self_s "benchgen");
    ("faultsim.self_s", self_s "faultsim");
    ("faultsim.random_s", total "faultsim.random");
    ("faultsim.pattern_s", total "faultsim.pattern");
    ("faultsim.faults", faults);
    ( "faultsim.random_drop_frac",
      ratio (sum_arg "detected" (named "faultsim.random")) faults );
    ("atpg.self_s", self_s "atpg");
    ("atpg.podem_s", podem_s);
    ("atpg.podem_calls", podem_calls);
    ("atpg.podem_ms_per_call", 1e3 *. ratio podem_s podem_calls);
    ( "atpg.test_frac",
      ratio (float_of_int (List.length (List.filter (arg_is "test" (T.Bool true)) podem)))
        podem_calls );
    ("runner.self_s", self_s "runner");
    ("runner.makespan_s", makespan);
    ("runner.cell_s.sum", sum cells);
    ("runner.cell_s.max", list_max cells);
    ("runner.efficiency", ratio (sum cells) (float_of_int jobs *. makespan));
    ("trace.coverage", coverage);
  ]

(** Units of the metrics above, and of [telemetry.overhead_frac]. *)
let unit_of name =
  let ends suffix = Filename.check_suffix name suffix in
  if ends "_per_s" then "1/s"
  else if ends "_s" || ends "_s.sum" || ends "_s.max" then "s"
  else if ends "_ms.p50" || ends "_ms_per_call" then "ms"
  else if ends "_us.p50" then "us"
  else if ends "_mb.max" then "MB"
  else if ends "_share" || ends "_frac" || ends "efficiency" || ends "coverage"
  then "ratio"
  else "count"
