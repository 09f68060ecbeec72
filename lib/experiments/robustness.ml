(** Robustness sweep: oracle-based attacks vs. the imperfect oracles of the
    paper's threat model.

    The classic attack literature assumes a perfect, tireless oracle; the
    paper's point is that the oracle is the weak element — protected
    (OraP answers locked), partially compromised (Trojan scenarios (c)/(e)
    are intermittent), or simply hard to reach (noisy probes, rate-limited
    chip access).  This table sweeps noise level × query budget × attack
    and reports recovery rate, the Hamming distance of the recovered key
    and how each run ended, using the structured outcomes of
    {!Orap_attacks.Budget}. *)

module Locked = Orap_locking.Locked
module Faulty = Orap_core.Faulty_oracle
module Budget = Orap_attacks.Budget
module Evaluate = Orap_attacks.Evaluate
module Key_recovery = Orap_attacks.Key_recovery
module Runner = Orap_runner.Runner

type params = {
  seed : int;
  num_gates : int;
  key_size : int;
  oracle : Security.oracle_kind;  (** base oracle under the fault stack *)
  noise_levels : float list;  (** per-query bit-flip probabilities *)
  query_budgets : int list;  (** 0 = unlimited *)
  trials : int;  (** noise seeds per cell *)
  attacks : Key_recovery.t list;
  max_iterations : int;
  wall_clock_s : float;  (** per-attack deadline, seconds *)
  max_conflicts : int option;  (** cumulative solver-conflict budget *)
  retry_votes : int;  (** >1 enables the majority-vote repair wrapper *)
  validate_queries : int;
      (** post-proof audit queries for the SAT attack's [Exact] claims *)
}

let default_params =
  {
    seed = 1;
    num_gates = 300;
    key_size = 16;
    oracle = Security.Functional;
    noise_levels = [ 0.0; 0.02; 0.10 ];
    query_budgets = [ 0; 2000 ];
    trials = 3;
    attacks = Key_recovery.all;
    max_iterations = 256;
    wall_clock_s = 10.0;
    max_conflicts = None;
    retry_votes = 1;
    validate_queries = 32;
  }

type row = {
  attack : string;
  noise : float;
  query_budget : int;
  trials : int;
  equivalent : int;  (** trials ending in a functionally correct key *)
  exact_proofs : int;  (** trials proving [Exact] a genuinely equivalent key *)
  mean_key_hd_pct : float option;  (** over trials that produced a key *)
  mean_queries : float;
  mean_elapsed_s : float;
  outcomes : string;  (** aggregated outcome tags, e.g. "2 exact, 1 refused" *)
}

(* short tag for aggregation; [genuine] is the harness's ground-truth
   equivalence check — an [Exact] whose key is functionally wrong is a
   proof relative to a lying oracle, which only the harness can unmask *)
let outcome_tag ~genuine = function
  | Budget.Exact _ -> if genuine then "exact" else "false-proof"
  | Budget.Approximate _ -> "approx"
  | Budget.Exhausted (Budget.Iterations _) -> "iter-cap"
  | Budget.Exhausted (Budget.Wall_clock _) -> "timeout"
  | Budget.Exhausted (Budget.Conflicts _) -> "conflict-cap"
  | Budget.Exhausted Budget.Inconsistent -> "inconsistent"
  | Budget.Exhausted (Budget.Refusal _) -> "refused"
  | Budget.Exhausted (Budget.No_progress _) -> "no-progress"
  | Budget.Oracle_refused _ -> "refused"

let summarize_tags tags =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun tag ->
      match Hashtbl.find_opt tbl tag with
      | Some n -> Hashtbl.replace tbl tag (n + 1)
      | None ->
        Hashtbl.add tbl tag 1;
        order := tag :: !order)
    tags;
  String.concat ", "
    (List.rev_map
       (fun tag -> Printf.sprintf "%d %s" (Hashtbl.find tbl tag) tag)
       !order)

(* key-bit Hamming distance, percent *)
let key_hd_pct correct key =
  let diff = ref 0 in
  Array.iteri (fun i b -> if b <> key.(i) then incr diff) correct;
  100.0 *. float_of_int !diff /. float_of_int (max 1 (Array.length correct))

(** The fault stack over a fresh base oracle, innermost first: chip ->
    measurement noise (seeded by [seed]) -> access rate limit -> optional
    majority-vote repair (each vote is a metered physical query, so retries
    burn budget — that is the tradeoff).  [noise = 0.], [query_budget = 0]
    and [votes = 1] leave their layer out. *)
let oracle fx kind ~noise ~query_budget ~votes ~seed =
  let o = Security.oracle fx kind in
  let o = if noise > 0.0 then Faulty.bit_flip ~seed ~p:noise o else o in
  let o = if query_budget > 0 then Faulty.query_budget ~limit:query_budget o else o in
  if votes > 1 then Faulty.retry ~votes o else o

(* one grid cell: an (attack, noise, query budget) point, run for
   [params.trials] trial seeds *)
type cell = { attack : Key_recovery.t; noise : float; query_budget : int }

let cell_id (p : params) (c : cell) =
  Printf.sprintf
    "robustness|gates=%d|key=%d|oracle=%s|trials=%d|iters=%d|wall=%s|confl=%s|votes=%d|validate=%d|seed=%d|attack=%s|noise=%s|qb=%d"
    p.num_gates p.key_size
    (Security.oracle_slug p.oracle)
    p.trials p.max_iterations
    (Runner.float_repr p.wall_clock_s)
    (match p.max_conflicts with None -> "-" | Some c -> string_of_int c)
    p.retry_votes p.validate_queries p.seed c.attack.slug
    (Runner.float_repr c.noise) c.query_budget

(* [seed] is the cell's derived seed; trial [t] uses [seed + t], so trial
   streams are independent of every other cell and of scheduling order *)
let run_cell (params : params) fx budget ~seed (c : cell) : row =
  let locked = fx.Security.locked in
  let tags = ref [] in
  let equivalent = ref 0 in
  let exact_proofs = ref 0 in
  let hds = ref [] in
  let queries = ref 0 in
  let elapsed = ref 0.0 in
  for trial = 0 to params.trials - 1 do
    let oracle =
      oracle fx params.oracle ~noise:c.noise ~query_budget:c.query_budget
        ~votes:params.retry_votes ~seed:(seed + trial)
    in
    let t0 = Unix.gettimeofday () in
    let { Orap_attacks.Attack.outcome; queries = q; _ } =
      c.attack.run ~budget ~validate:params.validate_queries locked oracle
    in
    elapsed := !elapsed +. (Unix.gettimeofday () -. t0);
    queries := !queries + q;
    let genuine =
      match Budget.recovered outcome with
      | None -> false
      | Some key ->
        hds := key_hd_pct locked.Locked.correct_key key :: !hds;
        (Evaluate.of_key locked (Some key)).Evaluate.equivalent
    in
    if genuine then incr equivalent;
    (match outcome with
    | Budget.Exact _ when genuine -> incr exact_proofs
    | _ -> ());
    tags := outcome_tag ~genuine outcome :: !tags
  done;
  let n = float_of_int params.trials in
  {
    attack = c.attack.name;
    noise = c.noise;
    query_budget = c.query_budget;
    trials = params.trials;
    equivalent = !equivalent;
    exact_proofs = !exact_proofs;
    mean_key_hd_pct =
      (match !hds with
      | [] -> None
      | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)));
    mean_queries = float_of_int !queries /. n;
    mean_elapsed_s = !elapsed /. n;
    outcomes = summarize_tags (List.rev !tags);
  }

(* the first outcome tag of the aggregated cell, for the progress tally *)
let row_tag (r : row) =
  match String.index_opt r.outcomes ' ' with
  | Some i -> (
    let rest = String.sub r.outcomes (i + 1) (String.length r.outcomes - i - 1) in
    match String.index_opt rest ',' with
    | Some j -> String.sub rest 0 j
    | None -> rest)
  | None -> "?"

let row_codec : row Runner.codec =
  Runner.codec
    ~encode:(fun (r : row) ->
      [ r.attack; Runner.float_repr r.noise;
        string_of_int r.query_budget; string_of_int r.trials;
        string_of_int r.equivalent; string_of_int r.exact_proofs;
        (match r.mean_key_hd_pct with
        | None -> "-"
        | Some h -> Runner.float_repr h);
        Runner.float_repr r.mean_queries;
        Runner.float_repr r.mean_elapsed_s; r.outcomes ])
    ~decode:(fun [@warning "-8"]
      [ attack; noise; query_budget; trials; equivalent; exact_proofs;
        hd; mean_queries; mean_elapsed_s; outcomes ] ->
      {
        attack;
        noise = float_of_string noise;
        query_budget = int_of_string query_budget;
        trials = int_of_string trials;
        equivalent = int_of_string equivalent;
        exact_proofs = int_of_string exact_proofs;
        mean_key_hd_pct =
          (if hd = "-" then None else Some (float_of_string hd));
        mean_queries = float_of_string mean_queries;
        mean_elapsed_s = float_of_string mean_elapsed_s;
        outcomes;
      })

(** A scheduling-independent rendering of a row: every field except the
    wall-clock timing (which can never be byte-identical across runs).
    Used by the determinism tests and CI smoke checks. *)
let canonical (r : row) : string =
  row_codec.Runner.encode { r with mean_elapsed_s = 0.0 }

let grid (p : params) : cell list =
  List.concat_map
    (fun attack ->
      List.concat_map
        (fun noise ->
          List.map
            (fun query_budget -> { attack; noise; query_budget })
            p.query_budgets)
        p.noise_levels)
    p.attacks

let run ?(params = default_params) ?(options = Runner.default_options) () :
    row list =
  let fx =
    Security.make_fixture ~seed:params.seed ~num_gates:params.num_gates
      ~key_size:params.key_size ()
  in
  let budget =
    Budget.make ~max_iterations:params.max_iterations
      ~wall_clock_s:params.wall_clock_s
      ?max_conflicts:params.max_conflicts ()
  in
  let options = { options with Runner.root_seed = params.seed } in
  Runner.map_grid ~options ~codec:row_codec ~tag:row_tag
    ~id:(cell_id params)
    ~f:(run_cell params fx budget)
    (grid params)

let report (rows : row list) : Report.t =
  let t =
    Report.create
      ~title:"Robustness: attacks vs. noisy / rate-limited oracles"
      ~header:
        [ "Attack"; "Noise"; "Q-budget"; "Recovered"; "Proved"; "Key HD (%)";
          "Queries"; "Time (s)"; "Outcomes" ]
      ~aligns:
        [ Report.L; Report.R; Report.R; Report.R; Report.R; Report.R;
          Report.R; Report.R; Report.L ]
  in
  List.iter
    (fun (r : row) ->
      Report.add_row t
        [ r.attack;
          Printf.sprintf "%.2f" r.noise;
          (if r.query_budget = 0 then "inf" else string_of_int r.query_budget);
          Printf.sprintf "%d/%d" r.equivalent r.trials;
          Report.d r.exact_proofs;
          (match r.mean_key_hd_pct with None -> "-" | Some h -> Report.f1 h);
          Report.f1 r.mean_queries;
          Report.f2 r.mean_elapsed_s;
          r.outcomes ])
    rows;
  t
