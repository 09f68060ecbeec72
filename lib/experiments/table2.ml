(** Table II: stuck-at fault coverage and redundant+aborted fault counts,
    original vs. OraP-protected versions of the benchmark profiles.

    The protected version's key inputs are free ATPG inputs — the LFSR is
    in the scan chains — which is why the paper observes *better* fault
    coverage for the protected circuits (key gates act as test points). *)

module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Atpg = Orap_atpg.Atpg
module Runner = Orap_runner.Runner

type side = { fc_pct : float; redundant_aborted : int; total_faults : int }

type row = { name : string; original : side; protected_ : side }

type params = {
  scale : int;
  random_words : int;
  backtrack_limit : int;
  seed : int;
}

let default_params =
  { scale = 8; random_words = 32; backtrack_limit = 64; seed = 2020 }

let quick_params =
  { scale = 24; random_words = 16; backtrack_limit = 48; seed = 2020 }

let run_side ~seed (p : params) (nl : N.t) : side =
  let r =
    Atpg.run ~seed ~random_words:p.random_words
      ~backtrack_limit:p.backtrack_limit nl
  in
  {
    fc_pct = Atpg.coverage r;
    redundant_aborted = Atpg.redundant_plus_aborted r;
    total_faults = r.Atpg.total_faults;
  }

(* [seed] as in {!Table1.run_profile}: the cell's derived seed *)
let run_profile ?seed (p : params) (profile : Benchgen.profile) : row =
  let seed = match seed with Some s -> s | None -> p.seed in
  let profile =
    if p.scale = 1 then profile else Benchgen.scale ~factor:p.scale profile
  in
  let nl = Benchgen.of_profile profile in
  let locked =
    Weighted.lock nl ~key_size:profile.Benchgen.lfsr_size
      ~ctrl_inputs:profile.Benchgen.ctrl_inputs
  in
  {
    name = profile.Benchgen.name;
    original = run_side ~seed p nl;
    protected_ = run_side ~seed p locked.Locked.netlist;
  }

let cell_id (p : params) (profile : Benchgen.profile) =
  Printf.sprintf
    "table2|scale=%d|words=%d|backtrack=%d|seed=%d|profile=%s" p.scale
    p.random_words p.backtrack_limit p.seed profile.Benchgen.name

let side_fields s =
  [ Runner.float_repr s.fc_pct; string_of_int s.redundant_aborted;
    string_of_int s.total_faults ]

let side_of_fields fc ra tf =
  {
    fc_pct = float_of_string fc;
    redundant_aborted = int_of_string ra;
    total_faults = int_of_string tf;
  }

let row_codec : row Runner.codec =
  Runner.codec
    ~encode:(fun r ->
      (r.name :: side_fields r.original) @ side_fields r.protected_)
    ~decode:(fun [@warning "-8"] [ name; ofc; ora; otf; pfc; pra; ptf ] ->
      {
        name;
        original = side_of_fields ofc ora otf;
        protected_ = side_of_fields pfc pra ptf;
      })

let run ?(params = default_params) ?(options = Runner.default_options)
    ?(profiles = Benchgen.table1_profiles) () : row list =
  let options = { options with Runner.root_seed = params.seed } in
  Runner.map_grid ~options ~codec:row_codec
    ~tag:(fun _ -> "row")
    ~id:(cell_id params)
    ~f:(fun ~seed profile -> run_profile ~seed params profile)
    profiles

let report (rows : row list) : Report.t =
  let t =
    Report.create
      ~title:"Table II: stuck-at fault coverage and redundant+aborted faults"
      ~header:
        [ "Circuit"; "Orig FC (%)"; "Orig #Red+Abrt"; "Prot FC (%)";
          "Prot #Red+Abrt" ]
      ~aligns:[ Report.L; R; R; R; R ]
  in
  List.iter
    (fun r ->
      Report.add_row t
        [ r.name; Report.f2 r.original.fc_pct;
          Report.d r.original.redundant_aborted;
          Report.f2 r.protected_.fc_pct;
          Report.d r.protected_.redundant_aborted ])
    rows;
  t
