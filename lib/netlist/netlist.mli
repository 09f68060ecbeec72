(** Gate-level combinational netlist.

    Nodes carry dense integer ids and are stored in topological order by
    construction: a node's fanins must already exist when it is added, so
    every analysis is a single forward (or backward) array sweep. *)

type t

exception Invalid of string

(** {1 Evaluation schedule}

    The order in which {!Orap_sim.Sim.eval} evaluates a netlist's gates:
    every gate but the inputs, in strict-level order (a gate sits one level
    above its deepest fanin, so every fanin precedes its reader; BUF and
    NOT count as levels here, unlike in {!levels}), and within a level
    grouped by operation class.  The evaluator then dispatches once per run
    of one class, not once per gate: in id order the kinds of consecutive
    gates look random, and that dispatch is what a sweep in id order pays
    for.

    Each netlist has one schedule, built in linear time by the first
    {!schedule} call and kept with the netlist; later calls return it and
    allocate nothing.  The fields are read-only. *)
module Schedule : sig
  (** An operation class.  [And2]..[Xnor2] take two fanins, [And_n]..
      [Xnor_n] three or more; a one-fanin AND, OR or XOR is a [Buf], a
      one-fanin NAND, NOR or XNOR a [Not]. *)
  type op =
    | Const0
    | Const1
    | Buf
    | Not
    | And2
    | Nand2
    | Or2
    | Nor2
    | Xor2
    | Xnor2
    | Mux
    | And_n
    | Nand_n
    | Or_n
    | Nor_n
    | Xor_n
    | Xnor_n

  (** Run [r] holds the gates at schedule positions [ends.(r-1)] (0 for
      the first run) up to [ends.(r)] - 1, all of class [ops.(r)].  Gate
      [p] is packed in two ints: [code.(2p)] holds the gate's id, read
      with {!target}, and its first operand, read with {!first};
      [code.(2p+1)] holds the second.  The operands are the fanin ids of a
      BUF, NOT or two-input gate (none for a constant); a MUX's select and
      the index in [spill] of its data inputs [a; b]; a wide gate's fanins
      as the range [spill.(first) .. spill.(second - 1)]. *)
  type t = private { ops : op array; ends : int array; code : int array; spill : int array }

  val target : int -> int
  val first : int -> int
end

(** The netlist's schedule, built on the first call.  Safe to call from
    several domains at once.  Raises [Invalid_argument] on a netlist of
    more than 2{^31} nodes (or spilled fanins), whose ids (or spill
    indices) the packing's 31 bits cannot hold. *)
val schedule : t -> Schedule.t

(** {1 Readers}

    Node [i]'s readers are [readers.(start.(i)) .. readers.(start.(i+1) - 1)],
    in ascending id order, a gate listed once per fanin position that
    reads [i]; [is_output.(i)] holds iff [i] is a primary output.  Built by
    the first {!fanouts} call and kept like the schedule. *)
type fanouts = private { start : int array; readers : int array; is_output : bool array }

val fanouts : t -> fanouts

(** {1 Construction} *)

module Builder : sig
  type builder

  val create : ?size_hint:int -> unit -> builder
  val length : builder -> int

  (** Append a node; fanins must reference existing ids.  Raises [Invalid]
      on arity or topology violations, and on duplicate names. *)
  val add_node : ?name:string -> builder -> Gate.kind -> int array -> int

  val add_input : ?name:string -> builder -> int
  val mark_output : builder -> int -> unit
  val finish : builder -> t
end

(** {1 Access} *)

val num_nodes : t -> int
val num_inputs : t -> int
val num_outputs : t -> int
val kind : t -> int -> Gate.kind
val fanins : t -> int -> int array

(** Ids of the [Input] nodes, in declaration order. *)
val inputs : t -> int array

(** Ids of the nodes exposed as primary outputs (repetitions allowed). *)
val outputs : t -> int array

val name : t -> int -> string option

(** A printable name: the declared one, or ["n<id>"]. *)
val node_name : t -> int -> string

val find : t -> string -> int option

(** {1 Analyses} *)

(** Logic level per node; inverters and buffers are transparent. *)
val levels : t -> int array

(** Longest-path depth in logic levels. *)
val depth : t -> int

(** Gate count excluding inverters and buffers (the paper's "# Gates"). *)
val gate_count : t -> int

(** All logic nodes including inverters and buffers. *)
val node_count : t -> int

(** Timing slack per node ([max_int] for dangling nodes). *)
val slacks : t -> int array

(** Structural sanity check; raises [Invalid] on malformed netlists. *)
val validate : t -> unit

(** [copy_into builder t map] appends every node of [t] into [builder],
    rewriting fanins through [map], and returns [map].  With [map_inputs =
    false] the images of the input nodes must be preset in [map].  [node i
    copy] gives the image of logic node [i]: [copy ()] appends the plain
    copy (the default), and the hook may append more nodes around it or
    return an existing image instead. *)
val copy_into :
  ?map_inputs:bool ->
  ?node:(int -> (unit -> int) -> int) ->
  Builder.builder ->
  t ->
  int array ->
  int array
