(** Gate-level combinational netlist.

    Nodes carry dense integer ids and are stored in topological order by
    construction: a node's fanins must already exist when it is added, so
    every analysis is a single forward (or backward) array sweep. *)

type t

exception Invalid of string

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

(** Fanout adjacency (output markings not included). *)
val fanouts : t -> int array array

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
