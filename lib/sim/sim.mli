(** Bit-parallel logic simulation: 64 input patterns per word, lane [b]
    of every word belonging to pattern [b].

    This is the library's one word simulator.  It evaluates a netlist into
    a {!store}: one 64-bit word per node, indexed by node id.

    {b The store contract.}
    - The caller owns the store.  It makes one with {!store} and may reuse
      it for any number of calls on the same netlist (or on any netlist
      with no more nodes).
    - After {!eval}, the word of every node is valid: inputs hold the words
      that were passed in, and every gate holds its value over them.
    - After {!eval_gate}, node [n] holds its gate over its fanins' words
      as they stand, and no other word has changed.  Fault simulation
      overwrites a word in place, re-evaluates the readers this way and
      restores the good words itself.
    - {!eval_gate} and the word operations below allocate nothing at
      all; nor does {!eval}, once the netlist's schedule exists: the first
      {!eval} of a netlist builds it, later evals allocate nothing.
      {!eval_bools} allocates one store per call.

    {!eval} runs the netlist's {!Orap_netlist.Netlist.schedule}: the gates
    in level order, grouped by operation class within each level, so that
    it dispatches once per run of one class and then loops over packed
    operands.  The dispatch per gate that an id-order sweep pays
    mispredicts, because kinds in id order look random.  The schedule
    packs node ids in 31 bits: a netlist of more than 2{^31} nodes raises
    [Invalid_argument].  {!eval_gate} dispatches one node on its kind, as
    event-driven propagation needs. *)

type store

(** A zeroed store with one word per node of the netlist. *)
val store : Orap_netlist.Netlist.t -> store

(** A zeroed store of [k] words, for masks kept beside a netlist's store:
    only the word operations below read or write it. *)
val words : int -> store

(** [eval nl s inputs] writes [inputs.(i)] as the word of the [i]-th
    primary input (position in {!Orap_netlist.Netlist.inputs}) and then
    evaluates every gate, each after its fanins, in schedule order.
    Raises [Invalid_argument] unless there is one word per primary input
    and [s] has a word per node. *)
val eval : Orap_netlist.Netlist.t -> store -> int64 array -> unit

(** [eval_gate nl s n] re-evaluates node [n] from its fanins' words in
    [s] and writes the result as [n]'s word.  An [Input] node keeps its
    word.  Raises [Invalid_argument] unless [s] has a word per node. *)
val eval_gate : Orap_netlist.Netlist.t -> store -> int -> unit

(** The word of node [n]. *)
val word : store -> int -> int64

(** Overwrite the word of node [n]. *)
val set_word : store -> int -> int64 -> unit

(** The word operations below return no [int64], so they allocate nothing
    even when a caller in another module cannot inline them. *)

(** [word_is s n w]: the word of node [n] is [w]. *)
val word_is : store -> int -> int64 -> bool

(** [same_word a i b j]: node [i]'s word in [a] equals node [j]'s in [b]. *)
val same_word : store -> int -> store -> int -> bool

(** [copy_word a i b j] writes node [i]'s word in [a] as node [j]'s in [b]. *)
val copy_word : store -> int -> store -> int -> unit

(** [xor_word a i w b j] writes node [i]'s word in [a], XORed with [w], as
    word [j] of [b]. *)
val xor_word : store -> int -> int64 -> store -> int -> unit

(** [and_word a i b j] ANDs node [i]'s word in [a] into word [j] of [b]. *)
val and_word : store -> int -> store -> int -> unit

(** [or_diff a i b j c k] ORs into word [k] of [c] the lanes where word [i]
    of [a] and word [j] of [b] differ. *)
val or_diff : store -> int -> store -> int -> store -> int -> unit

(** [sensitise nl s n pos m j] clears, in word [j] of [m], the lanes where
    flipping fanin [pos] of node [n] alone would leave [n]'s value as it
    is, every other fanin holding its word in [s].  AND and NAND pass the
    flip where every other fanin is 1, OR and NOR where every other fanin
    is 0; a MUX select passes where the data inputs differ, a data input
    where it is selected; XOR, XNOR, BUF and NOT pass it in every lane.
    Raises [Invalid_argument] unless [s] has a word per node. *)
val sensitise : Orap_netlist.Netlist.t -> store -> int -> int -> store -> int -> unit

(** Single-pattern simulation on a bool input assignment (by input
    position); returns the output values.  Raises [Invalid_argument] on a
    wrong input count. *)
val eval_bools : Orap_netlist.Netlist.t -> bool array -> bool array

(** Number of set bits. *)
val popcount64 : int64 -> int
