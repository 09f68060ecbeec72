(** Tseitin encoding of a combinational netlist into solver clauses. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate

(** [encode solver t ~input_var] creates one solver variable per netlist node
    and asserts the gate-consistency clauses.  Input nodes reuse the variable
    provided by [input_var pos] ([pos] is the position of the node in
    [N.inputs t]); pass [fun _ -> Solver.new_var solver]-style functions to
    share variables between circuit copies (the SAT-attack miter shares the
    primary inputs but not the key inputs).  A gate [i] with
    [reuse.(i) >= 0] is not encoded: it takes variable [reuse.(i)], which
    an earlier encoding already constrains (a miter copy reuses the
    key-independent logic of its first copy).  Returns the variable of
    every node. *)
let encode ?reuse (solver : Solver.t) (t : N.t) ~(input_var : int -> int) :
    int array =
  let n = N.num_nodes t in
  let vars = Array.make n (-1) in
  let input_pos = ref 0 in
  let add lits = ignore (Solver.add_clause solver lits) in
  let reused i = match reuse with Some r -> r.(i) | None -> -1 in
  for i = 0 to n - 1 do
    match N.kind t i with
    | Gate.Input ->
      vars.(i) <- input_var !input_pos;
      incr input_pos
    | _ when reused i >= 0 -> vars.(i) <- reused i
    | k ->
      let v = Solver.new_var solver in
      vars.(i) <- v;
      let fan = Array.map (fun f -> vars.(f)) (N.fanins t i) in
      let out_pos = Lit.pos v and out_neg = Lit.neg v in
      (* encode AND-like gates with an optionally negated output literal *)
      let and_like ~neg_out =
        let o_t = if neg_out then out_neg else out_pos in
        let o_f = Lit.negate o_t in
        (* o -> each fanin true *)
        Array.iter (fun f -> add [ o_f; Lit.pos f ]) fan;
        (* all fanins true -> o *)
        add (o_t :: Array.to_list (Array.map Lit.neg fan))
      in
      let or_like ~neg_out =
        let o_t = if neg_out then out_neg else out_pos in
        let o_f = Lit.negate o_t in
        Array.iter (fun f -> add [ o_t; Lit.neg f ]) fan;
        add (o_f :: Array.to_list (Array.map Lit.pos fan))
      in
      (* v_out <-> a xor b, for given literal vars *)
      let xor2 v_out a b =
        add [ Lit.neg v_out; Lit.pos a; Lit.pos b ];
        add [ Lit.neg v_out; Lit.neg a; Lit.neg b ];
        add [ Lit.pos v_out; Lit.pos a; Lit.neg b ];
        add [ Lit.pos v_out; Lit.neg a; Lit.pos b ]
      in
      let equal_vars a b =
        add [ Lit.neg a; Lit.pos b ];
        add [ Lit.pos a; Lit.neg b ]
      in
      let xor_chain ~neg_out =
        (* fold fanins through aux vars; final equals v (or its negation) *)
        if Array.length fan = 1 then begin
          if neg_out then begin
            add [ Lit.neg v; Lit.neg fan.(0) ];
            add [ Lit.pos v; Lit.pos fan.(0) ]
          end
          else equal_vars v fan.(0)
        end
        else begin
          let acc = ref fan.(0) in
          for j = 1 to Array.length fan - 2 do
            let aux = Solver.new_var solver in
            xor2 aux !acc fan.(j);
            acc := aux
          done;
          let last = fan.(Array.length fan - 1) in
          if neg_out then begin
            (* v = not (acc xor last)  <=>  (not v) = acc xor last *)
            let aux = Solver.new_var solver in
            xor2 aux !acc last;
            add [ Lit.neg v; Lit.neg aux ];
            add [ Lit.pos v; Lit.pos aux ]
          end
          else xor2 v !acc last
        end
      in
      (match k with
      | Gate.Input -> assert false
      | Gate.Const0 -> add [ out_neg ]
      | Gate.Const1 -> add [ out_pos ]
      | Gate.Buf -> equal_vars v fan.(0)
      | Gate.Not ->
        add [ out_neg; Lit.neg fan.(0) ];
        add [ out_pos; Lit.pos fan.(0) ]
      | Gate.And -> and_like ~neg_out:false
      | Gate.Nand -> and_like ~neg_out:true
      | Gate.Or -> or_like ~neg_out:false
      | Gate.Nor -> or_like ~neg_out:true
      | Gate.Xor -> xor_chain ~neg_out:false
      | Gate.Xnor -> xor_chain ~neg_out:true
      | Gate.Mux ->
        let sel = fan.(0) and a = fan.(1) and b = fan.(2) in
        add [ Lit.neg v; Lit.pos sel; Lit.pos a ];
        add [ Lit.pos v; Lit.pos sel; Lit.neg a ];
        add [ Lit.neg v; Lit.neg sel; Lit.pos b ];
        add [ Lit.pos v; Lit.neg sel; Lit.neg b ])
  done;
  vars

(** Variables of the primary outputs given the node-variable map. *)
let output_vars (t : N.t) (vars : int array) : int array =
  Array.map (fun o -> vars.(o)) (N.outputs t)
