(** Reference PODEM: the implication engine as it stood before the
    trail-undo rewrite of [Orap_atpg.Podem], kept only for the differential
    property in [test_prop_testability.ml].  Every backtrack re-implies the
    cone of the un-assigned input through a min-heap of node ids, and gates
    are evaluated through [Five.eval_gate] on a fresh operand array.  Do not
    optimise this file: its value is that it is the old, obviously-correct
    engine. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Fault = Orap_faultsim.Fault
module Five = Orap_atpg.Five
module Scoap = Orap_atpg.Scoap

(* min-heap of node ids for event-driven forward propagation *)
module Heap = struct
  type h = { mutable a : int array; mutable len : int; mutable mem : bool array }

  let create n = { a = Array.make 64 0; len = 0; mem = Array.make n false }

  let push h x =
    if not h.mem.(x) then begin
      h.mem.(x) <- true;
      if h.len = Array.length h.a then begin
        let b = Array.make (2 * h.len) 0 in
        Array.blit h.a 0 b 0 h.len;
        h.a <- b
      end;
      h.a.(h.len) <- x;
      h.len <- h.len + 1;
      let i = ref (h.len - 1) in
      while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
        let p = (!i - 1) / 2 in
        let tmp = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := p
      done
    end

  let pop h =
    let top = h.a.(0) in
    h.mem.(top) <- false;
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && h.a.(l) < h.a.(!m) then m := l;
      if r < h.len && h.a.(r) < h.a.(!m) then m := r;
      if !m = !i then continue_ := false
      else begin
        let tmp = h.a.(!m) in
        h.a.(!m) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !m
      end
    done;
    top

  let is_empty h = h.len = 0
end

type outcome = Orap_atpg.Podem.outcome =
  | Test of bool option array
  | Redundant
  | Aborted

type engine = {
  nl : N.t;
  fanouts : int array array;
  scoap : Scoap.t;
  is_output : bool array;
  input_pos : int array;  (* node id -> PI position, or -1 *)
  values : Five.t array;
  d_nodes : (int, unit) Hashtbl.t;  (* nodes currently carrying D/D' *)
  heap : Heap.h;  (* reusable event heap (self-cleaning) *)
  mutable fault : Fault.t;
}

let create (nl : N.t) : engine =
  let n = N.num_nodes nl in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (N.outputs nl);
  let input_pos = Array.make n (-1) in
  Array.iteri (fun pos id -> input_pos.(id) <- pos) (N.inputs nl);
  {
    nl;
    fanouts = Util.fanout_lists nl;
    scoap = Scoap.compute nl;
    is_output;
    input_pos;
    values = Array.make n Five.X;
    d_nodes = Hashtbl.create 64;
    heap = Heap.create n;
    fault = { Fault.site = Fault.Output 0; stuck = false };
  }

(* value of node [n] recomputed from current fanin values, with the fault
   inserted *)
let eval_node e n =
  match N.kind e.nl n with
  | Gate.Input ->
    let v = e.values.(n) in
    (match e.fault.Fault.site with
    | Fault.Output fn when fn = n -> Five.faulted v ~stuck:e.fault.Fault.stuck
    | Fault.Output _ | Fault.Input _ -> v)
  | k ->
    let fan = N.fanins e.nl n in
    let ops =
      Array.mapi
        (fun pos f ->
          let v = e.values.(f) in
          match e.fault.Fault.site with
          | Fault.Input (fn, fpos) when fn = n && fpos = pos ->
            Five.faulted v ~stuck:e.fault.Fault.stuck
          | Fault.Input _ | Fault.Output _ -> v)
        fan
    in
    let v = Five.eval_gate k ops in
    (match e.fault.Fault.site with
    | Fault.Output fn when fn = n -> Five.faulted v ~stuck:e.fault.Fault.stuck
    | Fault.Output _ | Fault.Input _ -> v)

let set_value e n v =
  if Five.is_d e.values.(n) then Hashtbl.remove e.d_nodes n;
  e.values.(n) <- v;
  if Five.is_d v then Hashtbl.replace e.d_nodes n ()

(* forward event-driven implication after PI node [pi] changed *)
let imply e pi =
  let module H = Heap in
  let heap = e.heap in
  (* the PI itself may be a fault site *)
  let v = eval_node e pi in
  if v <> e.values.(pi) then set_value e pi v;
  Array.iter (fun r -> H.push heap r) e.fanouts.(pi);
  while not (H.is_empty heap) do
    let n = H.pop heap in
    let v = eval_node e n in
    if v <> e.values.(n) then begin
      set_value e n v;
      Array.iter (fun r -> H.push heap r) e.fanouts.(n)
    end
  done

let set_pi e pi (v : Five.t) =
  (* store the raw PI value; fault-at-PI is applied inside eval_node *)
  let raw = v in
  if e.values.(pi) <> raw then begin
    set_value e pi raw;
    imply e pi
  end
  else imply e pi

let detected e =
  Hashtbl.fold (fun n () acc -> acc || e.is_output.(n)) e.d_nodes false

(* five-valued value of the fault site branch, after fault insertion *)
let site_effect e =
  match e.fault.Fault.site with
  | Fault.Output n -> e.values.(n)
  | Fault.Input (n, pos) ->
    let d = (N.fanins e.nl n).(pos) in
    Five.faulted e.values.(d) ~stuck:e.fault.Fault.stuck

(* driver whose good value must be set to activate the fault *)
let activation_target e =
  match e.fault.Fault.site with
  | Fault.Output n -> n
  | Fault.Input (n, pos) -> (N.fanins e.nl n).(pos)

(* D-frontier: fanouts of D-carrying nodes whose own value is X *)
let d_frontier e =
  let seen = Hashtbl.create 16 in
  Hashtbl.fold
    (fun n () acc ->
      Array.fold_left
        (fun acc r ->
          if Five.is_x e.values.(r) && not (Hashtbl.mem seen r) then begin
            Hashtbl.replace seen r ();
            r :: acc
          end
          else acc)
        acc e.fanouts.(n))
    e.d_nodes []

(* is there a path of X-valued nodes from [start]'s output to a PO? *)
let x_path_exists e start =
  let seen = Hashtbl.create 64 in
  let rec dfs n =
    if e.is_output.(n) then true
    else if Hashtbl.mem seen n then false
    else begin
      Hashtbl.replace seen n ();
      Array.exists
        (fun r -> Five.is_x e.values.(r) && dfs r)
        e.fanouts.(n)
    end
  in
  (* the frontier gate output itself is X *)
  dfs start

exception Backtrace_blocked

(* walk an objective (node, desired boolean) down to a PI assignment *)
let rec backtrace e n want =
  let cc b f = if b then e.scoap.Scoap.cc1.(f) else e.scoap.Scoap.cc0.(f) in
  let easiest b candidates =
    match candidates with
    | [] -> raise Backtrace_blocked
    | c :: rest ->
      List.fold_left (fun best f -> if cc b f < cc b best then f else best) c rest
  in
  let hardest b candidates =
    match candidates with
    | [] -> raise Backtrace_blocked
    | c :: rest ->
      List.fold_left (fun best f -> if cc b f > cc b best then f else best) c rest
  in
  match N.kind e.nl n with
  | Gate.Input -> (n, want)
  | Gate.Const0 | Gate.Const1 -> raise Backtrace_blocked
  | Gate.Buf -> backtrace e (N.fanins e.nl n).(0) want
  | Gate.Not -> backtrace e (N.fanins e.nl n).(0) (not want)
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    let inverted =
      match N.kind e.nl n with Gate.Nand | Gate.Nor -> true | _ -> false
    in
    let controlling =
      match N.kind e.nl n with Gate.And | Gate.Nand -> false | _ -> true
    in
    let v' = if inverted then not want else want in
    let xs =
      Array.to_list (N.fanins e.nl n)
      |> List.filter (fun f -> Five.is_x e.values.(f))
    in
    if v' = controlling then
      (* one controlling input suffices: easiest *)
      backtrace e (easiest controlling xs) controlling
    else
      (* all inputs must be non-controlling: hardest first *)
      backtrace e (hardest (not controlling) xs) (not controlling)
  | Gate.Xor | Gate.Xnor ->
    let fan = N.fanins e.nl n in
    let xs = Array.to_list fan |> List.filter (fun f -> Five.is_x e.values.(f)) in
    let known_parity =
      Array.fold_left
        (fun acc f ->
          match e.values.(f) with Five.T -> not acc | _ -> acc)
        false fan
    in
    let inverted = N.kind e.nl n = Gate.Xnor in
    let target = if inverted then not want else want in
    (* set the chosen X input so that, with all other Xs at 0, parity works *)
    let chosen = easiest false xs in
    let others_zero = known_parity in
    backtrace e chosen (target <> others_zero)
  | Gate.Mux ->
    let fan = N.fanins e.nl n in
    let sel = fan.(0) and a = fan.(1) and b = fan.(2) in
    (match e.values.(sel) with
    | Five.F -> backtrace e a want
    | Five.T -> backtrace e b want
    | Five.X ->
      (* choose the branch whose data input is easiest for [want] *)
      if cc want a <= cc want b then backtrace e sel false
      else backtrace e sel true
    | Five.D | Five.Db -> raise Backtrace_blocked)

type objective = Activate of int * bool | Propagate of int

let choose_objective e : objective option =
  let site = site_effect e in
  if Five.is_d site then begin
    (* activated: check the frontier (site node counts when X-valued) *)
    let frontier = d_frontier e in
    let frontier =
      match e.fault.Fault.site with
      | Fault.Input (n, _) when Five.is_x e.values.(n) -> n :: frontier
      | Fault.Input _ | Fault.Output _ -> frontier
    in
    let frontier = List.filter (fun g -> x_path_exists e g) frontier in
    match frontier with
    | [] -> None
    | g :: rest ->
      let d = e.scoap.Scoap.dist_po in
      let best =
        List.fold_left (fun best g' -> if d.(g') < d.(best) then g' else best) g rest
      in
      Some (Propagate best)
  end
  else begin
    let tgt = activation_target e in
    match e.values.(tgt) with
    | Five.X -> Some (Activate (tgt, not e.fault.Fault.stuck))
    | Five.F | Five.T | Five.D | Five.Db -> None (* conflict: cannot excite *)
  end

(* from a propagation objective, produce a (node, value) goal: an X side
   input of the frontier gate set to the non-controlling value *)
let propagation_goal e g =
  let fan = N.fanins e.nl g in
  let xs =
    Array.to_list fan |> List.filter (fun f -> Five.is_x e.values.(f))
  in
  match xs with
  | [] -> None
  | _ -> (
    match N.kind e.nl g with
    | Gate.And | Gate.Nand -> Some (List.hd xs, true)
    | Gate.Or | Gate.Nor -> Some (List.hd xs, false)
    | Gate.Xor | Gate.Xnor | Gate.Buf | Gate.Not -> Some (List.hd xs, false)
    | Gate.Mux ->
      let sel = fan.(0) in
      if Five.is_x e.values.(sel) then begin
        (* select the branch carrying the D *)
        let d_on_b = Five.is_d e.values.(fan.(2)) in
        Some (sel, d_on_b)
      end
      else Some (List.hd xs, false)
    | Gate.Input | Gate.Const0 | Gate.Const1 -> None)

(** Generate a test for [fault], or prove redundancy, within
    [backtrack_limit] backtracks. *)
let run (e : engine) (fault : Fault.t) ~backtrack_limit : outcome =
  e.fault <- fault;
  (* reset state *)
  Array.fill e.values 0 (Array.length e.values) Five.X;
  Hashtbl.reset e.d_nodes;
  (* constants and their cones must be implied up-front *)
  let any_const = ref false in
  for n = 0 to N.num_nodes e.nl - 1 do
    match N.kind e.nl n with
    | Gate.Const0 | Gate.Const1 -> any_const := true
    | _ -> ()
  done;
  if !any_const then begin
    for n = 0 to N.num_nodes e.nl - 1 do
      let v = eval_node e n in
      if v <> e.values.(n) then set_value e n v
    done
  end
  else begin
    (* the bare fault itself may already show at an X site? no: X stays X *)
    ()
  end;
  let stack : (int * bool * bool) array =
    Array.make (N.num_inputs e.nl + 1) (0, false, false)
  in
  let sp = ref 0 in
  let backtracks = ref 0 in
  let decisions = ref 0 in
  let decision_cap = 200 * (N.num_inputs e.nl + 8) in
  let result = ref None in
  while !result = None do
    incr decisions;
    if !decisions > decision_cap then result := Some Aborted
    else if detected e then begin
      let test =
        Array.map
          (fun id ->
            match e.values.(id) with
            | Five.T -> Some true
            | Five.F -> Some false
            | Five.D -> Some true (* PI fault site: good value *)
            | Five.Db -> Some false
            | Five.X -> None)
          (N.inputs e.nl)
      in
      result := Some (Test test)
    end
    else begin
      let goal =
        match choose_objective e with
        | None -> None
        | Some (Activate (n, v)) -> (
          try Some (backtrace e n v) with Backtrace_blocked -> None)
        | Some (Propagate g) -> (
          match propagation_goal e g with
          | None -> None
          | Some (n, v) -> (
            try Some (backtrace e n v) with Backtrace_blocked -> None))
      in
      match goal with
      | Some (pi, v) ->
        stack.(!sp) <- (pi, v, false);
        incr sp;
        set_pi e pi (Five.of_bool v)
      | None ->
        (* conflict: backtrack *)
        incr backtracks;
        if !backtracks > backtrack_limit then result := Some Aborted
        else begin
          let rec unwind () =
            if !sp = 0 then result := Some Redundant
            else begin
              decr sp;
              let pi, v, flipped = stack.(!sp) in
              if flipped then begin
                set_pi e pi Five.X;
                unwind ()
              end
              else begin
                stack.(!sp) <- (pi, not v, true);
                incr sp;
                set_pi e pi (Five.of_bool (not v))
              end
            end
          in
          unwind ()
        end
    end
  done;
  match !result with Some r -> r | None -> assert false
