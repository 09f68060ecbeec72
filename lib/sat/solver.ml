(** CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning, VSIDS branching with phase saving, Luby restarts, activity-based
    learnt-clause reduction, and assumption-based incremental solving.

    The design follows Minisat; the implementation is self-contained (the
    container ships no SAT tooling, and the SAT attack of the paper needs an
    incremental solver).

    {b Storage.}  Every clause lives in one flat [int array] arena and is
    named by the offset of its first word, its reference.  A clause of [n]
    literals takes [n + 2] words:

    {v
    arena.(c)                          header: n lsl 2 | learnt lsl 1 | deleted
    arena.(c + 1)                      learnt: its index in [learnts] and in
                                       [cla_act]; problem clause: -1
    arena.(c + 2) .. arena.(c + n + 1) the literals, the two watched first
    v}

    Watch lists hold one int per entry.  A clause of three or more literals
    is watched by [c lsl 1]; a binary clause by
    [c lsl 32 lor other lsl 1 lor 1], where [other] is its literal besides
    the one watched, so propagation resolves it without reading the arena
    (references below 2{^31}, literals below 2{^31}); [reduce_db] never
    deletes a binary clause.  When a binary clause turns unit or
    conflicting, propagation writes its arena literals as [other; false
    literal], the order the long-clause path leaves and [analyze] reads.  Reasons hold references.  Clause
    activities sit in an unboxed float array indexed like [learnts], and
    literal values in a per-literal array that assignment writes for both
    polarities.  Conflict analysis and clause reduction work in scratch
    vectors, so the search loop allocates nothing.  [reduce_db] only marks
    clauses deleted; once deleted words pass a quarter of the arena,
    [compact] slides the live clauses down and remaps watches, reasons and
    [learnts], so memory follows the live clauses, not the conflicts so
    far.

    {b Branching heap.}  A binary max-heap of variables on activity.
    Sifting carries the moving variable in hand and shifts a hole over the
    heap array, with the comparisons the swap-per-level version made, so
    the heap ends in the same layout and ties among equal activities break
    as before.  Every unassigned variable is in the heap, so once the trail
    holds every variable the search answers [Sat] and empties the heap in
    one pass instead of popping it variable by variable.

    {b Same search.}  The arena replaced boxed clause records without moving
    a single search step: the learnt clause lists the asserting literal and
    then the lower-level literals in reverse discovery order, [reduce_db]
    ranks learnts by activity with ties in [learnts] order, watch lists
    keep their push order (compaction drops only entries of deleted
    clauses, which propagation would skip), and [max_learnts] is seeded
    from every clause ever allocated.  The binary watches, the hole sifting
    and the heap emptying kept every step too.  The test suite keeps the
    old solver as a reference and checks verdicts, models and every counter
    against it after every step. *)

type result = Sat | Unsat | Unknown

type t = {
  mutable arena : int array;  (* clause words; see the header comment *)
  mutable arena_len : int;  (* words in use *)
  mutable wasted : int;  (* words of deleted clauses still in the arena *)
  mutable allocated : int;  (* clauses ever allocated *)
  mutable problem_clauses : int;
  learnts : Vec.t;  (* references of the kept learnt clauses, oldest first *)
  mutable cla_act : float array;  (* activity of learnts.(i) *)
  mutable watches : Vec.t array;  (* per literal *)
  mutable value : int array;  (* per literal: 0 undef, 1 true, -1 false *)
  mutable level : int array;  (* per var *)
  mutable reason : int array;  (* per var: clause reference or -1 *)
  mutable activity : float array;  (* per var *)
  mutable polarity : bool array;  (* saved phase per var *)
  mutable seen : bool array;  (* scratch for analyze *)
  lits : Vec.t;  (* scratch: the clause being added or learnt *)
  order : Vec.t;  (* scratch: learnts indices sorted by reduce_db *)
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable nvars : int;
  mutable ok : bool;  (* false once a top-level conflict is derived *)
  mutable var_inc : float;
  mutable cla_inc : float;
  (* branching heap *)
  heap : Vec.t;
  mutable heap_pos : int array;  (* per var: position in heap or -1 *)
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable max_learnts : float;
}

let create () =
  {
    arena = Array.make 256 0;
    arena_len = 0;
    wasted = 0;
    allocated = 0;
    problem_clauses = 0;
    learnts = Vec.create ();
    cla_act = Array.make 16 0.;
    watches = Array.init 2 (fun _ -> Vec.create ());
    value = Array.make 2 0;
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    activity = Array.make 1 0.;
    polarity = Array.make 1 false;
    seen = Array.make 1 false;
    lits = Vec.create ();
    order = Vec.create ();
    trail = Vec.create ~capacity:64 ();
    trail_lim = Vec.create ();
    qhead = 0;
    nvars = 0;
    ok = true;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Vec.create ();
    heap_pos = Array.make 1 (-1);
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    max_learnts = 0.;
  }

let num_vars s = s.nvars
let num_clauses s = s.problem_clauses
let num_learnts s = Vec.length s.learnts
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let arena_words s = s.arena_len

let value_var s v = s.value.(Lit.pos v)
let value_lit s l = s.value.(l)

(* ---- clause words ---- *)

let size a c = a.(c) lsr 2
let is_learnt a c = a.(c) land 2 <> 0
let is_deleted a c = a.(c) land 1 <> 0

(* ---- branching heap (max-heap on var activity) ---- *)

(* Both sifts hold the variable at [i] in hand and move a hole: a parent
   moves down while the variable's activity is strictly greater, a child
   moves up while its activity is strictly greater than the variable's and
   than its left sibling's.  Indices stay below the heap's length. *)
let percolate_up s i =
  let heap = s.heap.Vec.data and pos = s.heap_pos and act = s.activity in
  let v = Array.unsafe_get heap i in
  let av = Array.unsafe_get act v in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pv = Array.unsafe_get heap p in
    if av > Array.unsafe_get act pv then begin
      Array.unsafe_set heap !i pv;
      Array.unsafe_set pos pv !i;
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let percolate_down s i =
  let heap = s.heap.Vec.data and n = Vec.length s.heap in
  let pos = s.heap_pos and act = s.activity in
  let v = Array.unsafe_get heap i in
  let av = Array.unsafe_get act v in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let best = ref !i and best_act = ref av in
    if l < n && Array.unsafe_get act (Array.unsafe_get heap l) > !best_act then begin
      best := l;
      best_act := Array.unsafe_get act (Array.unsafe_get heap l)
    end;
    if l + 1 < n && Array.unsafe_get act (Array.unsafe_get heap (l + 1)) > !best_act
    then best := l + 1;
    if !best = !i then continue := false
    else begin
      let b = Array.unsafe_get heap !best in
      Array.unsafe_set heap !i b;
      Array.unsafe_set pos b !i;
      i := !best
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    Vec.push s.heap v;
    percolate_up s (Vec.length s.heap - 1)
  end

let heap_pop s =
  let top = Vec.get s.heap 0 in
  let last = Vec.pop s.heap in
  s.heap_pos.(top) <- -1;
  if Vec.length s.heap > 0 then begin
    Vec.set s.heap 0 last;
    percolate_down s 0
  end;
  top

(* The state [heap_pop] reaches once it has popped every variable. *)
let heap_clear s =
  for i = 0 to Vec.length s.heap - 1 do
    s.heap_pos.(Vec.get s.heap i) <- -1
  done;
  Vec.clear s.heap

(* ---- variables ---- *)

let grow_arrays s n =
  let old = Array.length s.level in
  if n > old then begin
    let m = max n (2 * old) in
    let copy a def = let b = Array.make m def in Array.blit a 0 b 0 old; b in
    s.level <- copy s.level 0;
    s.reason <- copy s.reason (-1);
    s.heap_pos <- copy s.heap_pos (-1);
    s.activity <- copy s.activity 0.;
    s.polarity <- copy s.polarity false;
    s.seen <- copy s.seen false;
    let value = Array.make (2 * m) 0 in
    Array.blit s.value 0 value 0 (2 * old);
    s.value <- value;
    let w = Array.make (2 * m) (Vec.create ()) in
    Array.blit s.watches 0 w 0 (2 * old);
    for i = 2 * old to (2 * m) - 1 do
      w.(i) <- Vec.create ~capacity:2 ()
    done;
    s.watches <- w
  end

let new_var s =
  let v = s.nvars in
  if v >= 1 lsl 30 then failwith "Solver: more than 2^30 variables";
  grow_arrays s (v + 1);
  s.value.(Lit.pos v) <- 0;
  s.value.(Lit.neg v) <- 0;
  s.reason.(v) <- -1;
  s.heap_pos.(v) <- -1;
  s.activity.(v) <- 0.;
  s.polarity.(v) <- false;
  s.nvars <- v + 1;
  heap_insert s v;
  v

let new_vars s n = Array.init n (fun _ -> new_var s)

(* ---- activity ---- *)

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then percolate_up s s.heap_pos.(v)

let cla_bump s c =
  let i = s.arena.(c + 1) in
  s.cla_act.(i) <- s.cla_act.(i) +. s.cla_inc;
  if s.cla_act.(i) > 1e20 then begin
    for j = 0 to Vec.length s.learnts - 1 do
      s.cla_act.(j) <- s.cla_act.(j) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* ---- trail ---- *)

let decision_level s = Vec.length s.trail_lim

let enqueue s l reason =
  let v = Lit.var l in
  s.value.(l) <- 1;
  s.value.(Lit.negate l) <- -1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let new_decision_level s = Vec.push s.trail_lim (Vec.length s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.length s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.polarity.(v) <- not (Lit.is_neg l);
      s.value.(l) <- 0;
      s.value.(Lit.negate l) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.length s.trail
  end

(* ---- clauses ---- *)

(* Watch entries; see the header comment. *)
let binary_watch c other = (c lsl 32) lor (other lsl 1) lor 1
let watch_ref w = if w land 1 = 0 then w lsr 1 else w lsr 32
let watch_other w = (w lsr 1) land 0x7FFF_FFFF

(* Append the clause held in [s.lits] to the arena and watch its first two
   literals; returns its reference. *)
let alloc_clause s learnt =
  let n = Vec.length s.lits in
  let c = s.arena_len in
  if c + n + 2 > Array.length s.arena then begin
    let a = Array.make (max (c + n + 2) (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 c;
    s.arena <- a
  end;
  let a = s.arena in
  a.(c) <- (n lsl 2) lor if learnt then 2 else 0;
  a.(c + 1) <- (if learnt then Vec.length s.learnts else -1);
  for j = 0 to n - 1 do
    a.(c + 2 + j) <- Vec.get s.lits j
  done;
  s.arena_len <- c + n + 2;
  s.allocated <- s.allocated + 1;
  let l0 = a.(c + 2) and l1 = a.(c + 3) in
  if n = 2 then begin
    if c >= 1 lsl 31 then failwith "Solver: clause arena beyond 2^31 words";
    Vec.push s.watches.(Lit.negate l0) (binary_watch c l1);
    Vec.push s.watches.(Lit.negate l1) (binary_watch c l0)
  end
  else begin
    Vec.push s.watches.(Lit.negate l0) (c lsl 1);
    Vec.push s.watches.(Lit.negate l1) (c lsl 1)
  end;
  if learnt then begin
    let i = Vec.length s.learnts in
    if i = Array.length s.cla_act then begin
      let act = Array.make (2 * i) 0. in
      Array.blit s.cla_act 0 act 0 i;
      s.cla_act <- act
    end;
    s.cla_act.(i) <- 0.;
    Vec.push s.learnts c
  end
  else s.problem_clauses <- s.problem_clauses + 1;
  c

(* Push the literals of the sorted, duplicate-free [lits] that are not
   false onto [s.lits]; [false] if the clause holds a true literal or,
   side by side, x = 2v and ~x = 2v + 1.  [prev] is the literal before. *)
let rec intake s prev = function
  | [] -> true
  | l :: rest ->
    if l = Lit.negate prev || value_lit s l > 0 then false
    else begin
      if value_lit s l = 0 then Vec.push s.lits l;
      intake s l rest
    end

(** Add a problem clause.  Must be called at decision level 0 (the solver
    backtracks there between [solve] calls).  Returns [false] if the clause
    set became trivially unsatisfiable. *)
let add_clause s (lits : Lit.t list) =
  if s.ok then begin
    (* adding clauses invalidates any retained model: return to the root *)
    cancel_until s 0;
    Vec.clear s.lits;
    if intake s min_int (List.sort_uniq Int.compare lits) then
      match Vec.length s.lits with
      | 0 -> s.ok <- false
      | 1 -> enqueue s (Vec.get s.lits 0) (-1)
      | _ -> ignore (alloc_clause s false)
  end;
  s.ok

(* ---- propagation ---- *)

(* Returns the conflicting clause's reference or -1.  Neither the arena, the
   value array nor a watch list being scanned is reallocated while
   propagating (a moved watch goes to the list of a literal that is not
   false, never to [p]'s), and every index read unchecked is a literal, a
   watch position below the list's length or a word of a live clause. *)
let propagate s : int =
  let a = s.arena and value = s.value and watches = s.watches in
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < Vec.length s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* clauses watching literal L are filed under key ~L, so the clauses
       whose watch was falsified by p (i.e. watching ~p) are in watches.(p) *)
    let false_lit = Lit.negate p in
    let ws = Array.unsafe_get watches p in
    let wd = ws.Vec.data and n = Vec.length ws in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let w = Array.unsafe_get wd !i in
      incr i;
      if w land 1 <> 0 then begin
        (* binary clause: satisfied, unit or conflicting on [other] alone *)
        Array.unsafe_set wd !keep w;
        incr keep;
        let other = watch_other w in
        let v = Array.unsafe_get value other in
        if v <= 0 then begin
          let c = w lsr 32 in
          Array.unsafe_set a (c + 2) other;
          Array.unsafe_set a (c + 3) false_lit;
          if v < 0 then begin
            (* conflict: keep remaining watches *)
            conflict := c;
            while !i < n do
              Array.unsafe_set wd !keep (Array.unsafe_get wd !i);
              incr keep;
              incr i
            done;
            s.qhead <- Vec.length s.trail
          end
          else enqueue s other c
        end
      end
      else begin
        let c = w lsr 1 in
        let h = Array.unsafe_get a c in
        if h land 1 <> 0 then () (* drop the watch of a deleted clause *)
        else begin
          let w0 = c + 2 in
          if Array.unsafe_get a w0 = false_lit then begin
            Array.unsafe_set a w0 (Array.unsafe_get a (w0 + 1));
            Array.unsafe_set a (w0 + 1) false_lit
          end;
          let first = Array.unsafe_get a w0 in
          if Array.unsafe_get value first > 0 then begin
            (* clause satisfied; keep watching *)
            Array.unsafe_set wd !keep w;
            incr keep
          end
          else begin
            (* look for a new literal to watch *)
            let stop = w0 + (h lsr 2) in
            let k = ref (w0 + 2) in
            while !k < stop && Array.unsafe_get value (Array.unsafe_get a !k) < 0 do
              incr k
            done;
            if !k < stop then begin
              let q = Array.unsafe_get a !k in
              Array.unsafe_set a (w0 + 1) q;
              Array.unsafe_set a !k false_lit;
              Vec.push (Array.unsafe_get watches (Lit.negate q)) w
            end
            else if Array.unsafe_get value first < 0 then begin
              (* conflict: keep remaining watches *)
              conflict := c;
              Array.unsafe_set wd !keep w;
              incr keep;
              while !i < n do
                Array.unsafe_set wd !keep (Array.unsafe_get wd !i);
                incr keep;
                incr i
              done;
              s.qhead <- Vec.length s.trail
            end
            else begin
              (* unit *)
              Array.unsafe_set wd !keep w;
              incr keep;
              enqueue s first c
            end
          end
        end
      end
    done;
    Vec.shrink ws !keep
  done;
  !conflict

(* ---- conflict analysis (first UIP) ---- *)

(* Leaves the learnt clause in [s.lits]: the asserting literal, then the
   lower-level literals in reverse discovery order.  Returns the backtrack
   level. *)
let analyze s conflict =
  let a = s.arena in
  let lits = s.lits in
  Vec.clear lits;
  let bt_level = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref conflict in
  let index = ref (Vec.length s.trail - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if is_learnt a c then cla_bump s c;
    (* when resolving on p, the clause's first literal is p (the literal
       it asserted) *)
    let start = if !p = -1 then c + 2 else c + 3 in
    for j = start to c + 1 + size a c do
      let q = a.(j) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          Vec.push lits q;
          if s.level.(v) > !bt_level then bt_level := s.level.(v)
        end
      end
    done;
    (* next clause to resolve: walk trail backwards to a seen var *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    let v = Lit.var !p in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then continue := false else confl := s.reason.(v)
  done;
  (* cleanup seen for the literals kept in the learnt clause *)
  let n = Vec.length lits in
  for j = 0 to n - 1 do
    s.seen.(Lit.var (Vec.get lits j)) <- false
  done;
  (* asserting literal first, the rest reversed *)
  Vec.push lits (Lit.negate !p);
  for j = 0 to (n + 1) / 2 - 1 do
    let t = Vec.get lits j in
    Vec.set lits j (Vec.get lits (n - j));
    Vec.set lits (n - j) t
  done;
  !bt_level

let record_learnt s =
  let lits = s.lits in
  if Vec.length lits = 1 then enqueue s (Vec.get lits 0) (-1)
  else begin
    (* watch a literal of the backtrack level in position 1 *)
    let max_i = ref 1 in
    for j = 2 to Vec.length lits - 1 do
      if s.level.(Lit.var (Vec.get lits j)) > s.level.(Lit.var (Vec.get lits !max_i))
      then max_i := j
    done;
    let tmp = Vec.get lits 1 in
    Vec.set lits 1 (Vec.get lits !max_i);
    Vec.set lits !max_i tmp;
    let c = alloc_clause s true in
    cla_bump s c;
    enqueue s (Vec.get lits 0) c
  end

(* ---- learnt clause DB reduction ---- *)

let locked s c = s.reason.(Lit.var s.arena.(c + 2)) = c

(* Slide the live clauses to the front of the arena, in order, and remap
   every reference.  Word [c + 1] of each clause first carries its new
   offset; the learnt indices are written back last. *)
let compact s =
  let a = s.arena in
  let c = ref 0 and fresh = ref 0 in
  while !c < s.arena_len do
    let words = size a !c + 2 in
    if not (is_deleted a !c) then begin
      a.(!c + 1) <- !fresh;
      fresh := !fresh + words
    end;
    c := !c + words
  done;
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    let keep = ref 0 in
    for i = 0 to Vec.length ws - 1 do
      let w = Vec.get ws i in
      let c = watch_ref w in
      if not (is_deleted a c) then begin
        Vec.set ws !keep
          (if w land 1 = 0 then a.(c + 1) lsl 1
           else binary_watch a.(c + 1) (watch_other w));
        incr keep
      end
    done;
    Vec.shrink ws !keep
  done;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r >= 0 then s.reason.(v) <- a.(r + 1)
  done;
  for i = 0 to Vec.length s.learnts - 1 do
    Vec.set s.learnts i a.(Vec.get s.learnts i + 1)
  done;
  c := 0;
  while !c < s.arena_len do
    let words = size a !c + 2 in
    if not (is_deleted a !c) then begin
      let dst = a.(!c + 1) in
      a.(dst) <- a.(!c);
      Array.blit a (!c + 2) a (dst + 2) (words - 2);
      a.(dst + 1) <- -1
    end;
    c := !c + words
  done;
  for i = 0 to Vec.length s.learnts - 1 do
    a.(Vec.get s.learnts i + 1) <- i
  done;
  s.arena_len <- !fresh;
  s.wasted <- 0

(* The order [reduce_db] ranks learnts indices in: by activity, ties by
   index, which makes its sort the stable sort of [learnts] on activity. *)
let before (act : float array) i j =
  act.(i) < act.(j) || (act.(i) = act.(j) && i < j)

(* Sift [o.(root)] down the max-heap [o.(0 .. len - 1)]. *)
let sift act o root len =
  let i = ref root and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let m =
        if l + 1 < len && before act (Vec.get o l) (Vec.get o (l + 1)) then l + 1
        else l
      in
      let x = Vec.get o !i and y = Vec.get o m in
      if before act x y then begin
        Vec.set o !i y;
        Vec.set o m x;
        i := m
      end
      else continue := false
    end
  done

(* Delete the less active half of the learnt clauses, sparing binary and
   locked ones.  The ranking is an in-place heap sort of learnts indices. *)
let reduce_db s =
  let a = s.arena and act = s.cla_act in
  let n = Vec.length s.learnts in
  let o = s.order in
  Vec.clear o;
  for i = 0 to n - 1 do
    Vec.push o i
  done;
  for i = (n / 2) - 1 downto 0 do
    sift act o i n
  done;
  for k = n - 1 downto 1 do
    let t = Vec.get o 0 in
    Vec.set o 0 (Vec.get o k);
    Vec.set o k t;
    sift act o 0 k
  done;
  for r = 0 to (n / 2) - 1 do
    let c = Vec.get s.learnts (Vec.get o r) in
    if size a c > 2 && not (locked s c) then begin
      a.(c) <- a.(c) lor 1;
      s.wasted <- s.wasted + size a c + 2
    end
  done;
  (* keep the survivors in order, moving their activities along *)
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = Vec.get s.learnts i in
    if not (is_deleted a c) then begin
      Vec.set s.learnts !kept c;
      act.(!kept) <- act.(i);
      a.(c + 1) <- !kept;
      incr kept
    end
  done;
  Vec.shrink s.learnts !kept;
  if 4 * s.wasted > s.arena_len then compact s

(* ---- search ---- *)

(* Luby restart sequence, as in Minisat *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

(* The CDCL search, generic in its answer type: [sat] and [unsat] are the
   two verdicts, and [limit], when given, is the conflict cap paired with the
   answer to report once it trips.  Every answer but [sat] returns to the
   root. *)
let search (type a) ~(sat : a) ~(unsat : a) ~(limit : (int * a) option)
    ~(assumptions : Lit.t array) s : a =
  let exception Answered of a in
  let stop r =
    cancel_until s 0;
    raise (Answered r)
  in
  if not s.ok then unsat
  else begin
    cancel_until s 0;
    let restart_first = 100. in
    let restart_num = ref 0 in
    s.max_learnts <- float_of_int (max 1000 (s.allocated / 3));
    try
      while true do
        let conflict_budget =
          restart_first *. luby 2.0 !restart_num |> int_of_float
        in
        incr restart_num;
        let conflicts_here = ref 0 in
        let continue_inner = ref true in
        while !continue_inner do
          let confl = propagate s in
          if confl >= 0 then begin
            s.conflicts <- s.conflicts + 1;
            incr conflicts_here;
            if decision_level s = 0 then begin
              s.ok <- false;
              stop unsat
            end;
            let bt = analyze s confl in
            cancel_until s bt;
            record_learnt s;
            s.var_inc <- s.var_inc *. var_decay;
            s.cla_inc <- s.cla_inc *. cla_decay;
            match limit with
            | Some (cap, r) when s.conflicts >= cap -> stop r
            | _ -> ()
          end
          else begin
            if !conflicts_here >= conflict_budget then begin
              cancel_until s 0;
              continue_inner := false
            end
            else begin
              if
                float_of_int (Vec.length s.learnts)
                >= s.max_learnts +. float_of_int (Vec.length s.trail)
              then begin
                reduce_db s;
                s.max_learnts <- s.max_learnts *. 1.1
              end;
              (* decide: assumptions first *)
              let decided = ref false in
              while (not !decided) && decision_level s < Array.length assumptions do
                let p = assumptions.(decision_level s) in
                let v = value_lit s p in
                if v > 0 then new_decision_level s (* already true: dummy level *)
                else if v < 0 then stop unsat
                else begin
                  new_decision_level s;
                  s.decisions <- s.decisions + 1;
                  enqueue s p (-1);
                  decided := true
                end
              done;
              if not !decided then begin
                (* pick a branching variable; with every variable assigned,
                   popping would empty the heap *)
                let rec pick () =
                  let v = heap_pop s in
                  if value_var s v = 0 then v else pick ()
                in
                if Vec.length s.trail = s.nvars then begin
                  heap_clear s;
                  raise (Answered sat) (* model read before next cancel *)
                end
                else begin
                  let v = pick () in
                  s.decisions <- s.decisions + 1;
                  new_decision_level s;
                  enqueue s (Lit.of_var ~negated:(not s.polarity.(v)) v) (-1)
                end
              end
            end
          end
        done
      done;
      assert false
    with Answered r -> r
  end

let solve ?(assumptions = [||]) ?conflict_limit s : result =
  search ~sat:Sat ~unsat:Unsat
    ~limit:(Option.map (fun cap -> (cap, Unknown)) conflict_limit)
    ~assumptions s

let decide ?(assumptions = [||]) s =
  search ~sat:`Sat ~unsat:`Unsat ~limit:None ~assumptions s

(** Model value of a variable after a [Sat] answer: [true]/[false]; unassigned
    pure variables default to [false]. *)
let model_value s v = value_var s v > 0

let model_lit s l = value_lit s l > 0

(** Reset the trail to level 0 (e.g. before adding clauses after a Sat). *)
let backtrack_to_root s = cancel_until s 0
