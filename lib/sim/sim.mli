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
    - After {!eval_gate}, only node [n]'s word has changed; every other
      word is as it was.  Fault simulation writes faulty words in place
      this way and restores the good ones itself.
    - {!eval}, {!eval_gate} and the word operations below allocate
      nothing at all; {!eval_bools} allocates one store per call.

    Node ids are topological, so a single ascending sweep is a complete
    evaluation.  Each gate is dispatched once on its kind, to a loop
    specialised to that kind; a forced fanin (a branch fault) takes a
    general path. *)

type store

(** A zeroed store with one word per node of the netlist. *)
val store : Orap_netlist.Netlist.t -> store

(** [eval nl s inputs] writes [inputs.(i)] as the word of the [i]-th
    primary input (position in {!Orap_netlist.Netlist.inputs}) and then
    evaluates every gate in id order.  Raises [Invalid_argument] unless
    there is one word per primary input and [s] has a word per node. *)
val eval : Orap_netlist.Netlist.t -> store -> int64 array -> unit

(** [eval_gate nl s n fpos fw] re-evaluates node [n] from its fanins'
    words in [s] and writes the result as [n]'s word.  The fanin at
    position [fpos] reads [fw] instead of its word (a branch stuck-at
    fault); [fpos] = -1 forces none.  An [Input] node keeps its word.
    Raises [Invalid_argument] unless [s] has a word per node. *)
val eval_gate : Orap_netlist.Netlist.t -> store -> int -> int -> int64 -> unit

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

(** Single-pattern simulation on a bool input assignment (by input
    position); returns the output values.  Raises [Invalid_argument] on a
    wrong input count. *)
val eval_bools : Orap_netlist.Netlist.t -> bool array -> bool array

(** Number of set bits. *)
val popcount64 : int64 -> int
