(** DIMACS CNF import/export, mainly for debugging and interop. *)

type cnf = { num_vars : int; clauses : int list list (* dimacs ints *) }

(** Parse DIMACS CNF text, skipping comment lines.  A malformed problem
    line or a token that is not an integer raises [Failure] naming the line
    and the token. *)
let parse (text : string) : cnf =
  let num_vars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let fail lineno what = failwith (Printf.sprintf "Dimacs.parse: line %d: %s" lineno what) in
  let tokens line =
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
    |> List.filter (( <> ) "")
  in
  let handle_token lineno tok =
    match int_of_string_opt tok with
    | None -> fail lineno (Printf.sprintf "bad literal %S" tok)
    | Some 0 ->
      clauses := List.rev !current :: !clauses;
      current := []
    | Some i ->
      if abs i > !num_vars then num_vars := abs i;
      current := i :: !current
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 and line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match tokens line with
        | [ "p"; "cnf"; nv; nc ]
          when int_of_string_opt nv <> None && int_of_string_opt nc <> None ->
          num_vars := max !num_vars (int_of_string nv)
        | _ -> fail lineno (Printf.sprintf "bad problem line %S" line)
      end
      else List.iter (handle_token lineno) (tokens line))
    (String.split_on_char '\n' text);
  if !current <> [] then clauses := List.rev !current :: !clauses;
  { num_vars = !num_vars; clauses = List.rev !clauses }

let print (c : cnf) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" c.num_vars (List.length c.clauses));
  List.iter
    (fun clause ->
      List.iter (fun i -> Buffer.add_string buf (string_of_int i); Buffer.add_char buf ' ') clause;
      Buffer.add_string buf "0\n")
    c.clauses;
  Buffer.contents buf

(** Load a parsed CNF into a fresh solver; returns (solver, var array) where
    [vars.(i)] is the solver variable for DIMACS variable [i+1]. *)
let to_solver (c : cnf) : Solver.t * int array =
  let s = Solver.create () in
  let vars = Solver.new_vars s c.num_vars in
  List.iter
    (fun clause ->
      let lits =
        List.map
          (fun i -> Lit.of_var ~negated:(i < 0) vars.(abs i - 1))
          clause
      in
      ignore (Solver.add_clause s lits))
    c.clauses;
  (s, vars)
