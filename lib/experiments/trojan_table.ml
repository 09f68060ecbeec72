(** S2: the Section-III Trojan scenario table — payload overheads and
    end-to-end attack outcomes for scenarios (a)–(e), against both the
    basic and the modified OraP schemes. *)

module Orap = Orap_core.Orap
module Threat = Orap_core.Threat
module Runner = Orap_runner.Runner

type row = {
  scenario : Threat.scenario;
  scheme : string;
  outcome : Threat.outcome;
}

let cell_id (scheme, sc) =
  Printf.sprintf "trojan|scheme=%s|scenario=%s" scheme
    (Threat.scenario_label sc)

let row_codec : row Runner.codec =
  Runner.codec
    ~encode:(fun r ->
      [ Threat.scenario_label r.scenario; r.scheme;
        string_of_bool r.outcome.Threat.oracle_obtained;
        Runner.float_repr r.outcome.Threat.payload_nand2;
        string_of_bool r.outcome.Threat.detectable ])
    ~decode:(fun [@warning "-8"]
      [ label; scheme; obtained; payload; detectable ] ->
      let scenario =
        List.find
          (fun sc -> Threat.scenario_label sc = label)
          Threat.all_scenarios
      in
      {
        scenario;
        scheme;
        outcome =
          {
            Threat.scenario;
            oracle_obtained = bool_of_string obtained;
            payload_nand2 = float_of_string payload;
            detectable = bool_of_string detectable;
          };
      })

let run ?(options = Runner.default_options) (fx : Security.fixture) : row list
    =
  let cells =
    List.concat_map
      (fun scheme -> List.map (fun sc -> (scheme, sc)) Threat.all_scenarios)
      [ "basic"; "modified" ]
  in
  Runner.map_grid ~options ~codec:row_codec
    ~tag:(fun r -> if Threat.defeated r.outcome then "defeated" else "oracle-leaked")
    ~id:cell_id
    ~f:(fun ~seed:_ (scheme, sc) ->
      let design =
        match scheme with
        | "basic" -> fx.Security.basic
        | _ -> fx.Security.modified
      in
      { scenario = sc; scheme; outcome = Threat.run design sc })
    cells

let report (rows : row list) : Report.t =
  let t =
    Report.create ~title:"Section III Trojan scenarios: payload and outcome"
      ~header:
        [ "Scenario"; "Scheme"; "Oracle obtained"; "Payload (NAND2-eq)";
          "Side-channel detectable"; "Defeated" ]
      ~aligns:[ Report.L; Report.L; Report.L; Report.R; Report.L; Report.L ]
  in
  List.iter
    (fun r ->
      Report.add_row t
        [ Threat.scenario_label r.scenario; r.scheme;
          Report.b r.outcome.Threat.oracle_obtained;
          Report.f1 r.outcome.Threat.payload_nand2;
          Report.b r.outcome.Threat.detectable;
          Report.b (Threat.defeated r.outcome) ])
    rows;
  t

(** The paper's 128-bit reference point for scenario (a): "roughly 64 NAND2
    gates". *)
let paper_reference_payload_a ~key_size = 0.5 *. float_of_int key_size
