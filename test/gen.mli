(** Seeded generator combinators and structured netlist generators.

    A generator is a function of the shared deterministic PRNG; composing
    generators threads the single stream, so a property case is reproduced
    exactly by re-seeding the PRNG with the case seed recorded by
    {!Prop.run}. *)

type 'a t = Orap_sim.Prng.t -> 'a

(** {1 Value combinators} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t

val bool : bool t

(** Uniform over [\[lo, hi\]] inclusive; raises if [lo > hi]. *)
val int_range : int -> int -> int t

(** Uniform pick from a non-empty array. *)
val oneof : 'a array -> 'a t

val list_of : int t -> 'a t -> 'a list t

(** {1 Netlist generators} *)

(** Shape envelope for random DAG generation.  All ranges are inclusive.
    [kinds] is the multiset logic kinds are drawn from (repeat an entry to
    weight it).  [max_fanin] bounds associative-gate width; [max_fanout]
    softly bounds per-node reader count (0 = unbounded); [locality] is the
    percentage of fanin draws biased towards recent nodes, which creates
    the reconvergence real logic exhibits. *)
type netlist_params = {
  inputs : int * int;
  outputs : int * int;
  gates : int * int;
  max_fanin : int;
  max_fanout : int;
  kinds : Orap_netlist.Gate.kind array;
  locality : int;
}

(** 4–8 inputs, 2–5 outputs, 15–60 gates, the full gate vocabulary
    (including [Mux], [Buf]/[Not] and rare constants). *)
val default_params : netlist_params

(** Small circuits whose input count admits exhaustive checking. *)
val tiny_params : netlist_params

(** Random combinational DAG over [params.kinds]; always valid
    (passes {!Orap_netlist.Netlist.validate}). *)
val netlist : ?params:netlist_params -> unit -> Orap_netlist.Netlist.t t

(** Netlist from the {!Orap_benchgen} generator with a drawn seed — the
    synthesised-looking profile used by the paper experiments, as opposed
    to the adversarial full-vocabulary DAGs of {!netlist}. *)
val benchgen_netlist :
  inputs:int -> outputs:int -> gates:int -> Orap_netlist.Netlist.t t

(** A DAG whose associative gates take 1 to 6 fanins drawn with
    repetition, mostly among the last few nodes (long single-fanout
    chains, BUF/NOT chains among them), with MUXes and constants, and
    outputs drawn from every node, so that some outputs also fan out. *)
val wide_netlist : Orap_netlist.Netlist.t t

(** {1 Mutation}

    [mutant nl] applies one random local semantic mutation to a logic node
    (dual gate swap [And<->Nand], [Or<->Nor], [Xor<->Xnor], [Buf<->Not],
    [Const0<->Const1], or a [Mux] branch swap): the workload for
    differential testing of the equivalence checker itself. *)
val mutant : Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t t
