(** Common representation of a locked combinational circuit: the locked
    netlist's inputs are the original primary inputs followed by the key
    inputs. *)

type t = {
  original : Orap_netlist.Netlist.t;
  netlist : Orap_netlist.Netlist.t;
  num_regular_inputs : int;
  correct_key : bool array;
  technique : string;
}

val key_size : t -> int

(** Input positions (within the locked netlist) of the key inputs. *)
val key_input_positions : t -> int array

(** Build a locked netlist in the layout above: the regular inputs, inputs
    named [key0 .. key<k-1>] ([k] = [Array.length correct_key]), then a copy
    of [nl].  [splice b ~key i img] is called for every logic node [i] of
    [nl] right after its copy [img] is appended and returns the image later
    nodes read (key logic goes in between); [key] holds the key inputs' ids.
    [flip b ~key ~inputs] is called once after the copy, with [inputs] the
    images of [nl]'s primary inputs, and returns a signal XORed into output
    0.  Only this function creates a locked netlist's builder. *)
val make :
  technique:string ->
  correct_key:bool array ->
  ?splice:(Orap_netlist.Netlist.Builder.builder -> key:int array -> int -> int -> int) ->
  ?flip:(Orap_netlist.Netlist.Builder.builder -> key:int array -> inputs:int array -> int) ->
  Orap_netlist.Netlist.t ->
  t

(** Average output Hamming distance (percent) of the circuit under [key]
    vs. the original, over shared random patterns. *)
val hamming_vs_original : ?seed:int -> ?words:int -> t -> bool array -> float

(** Evaluate on regular inputs plus a key. *)
val eval : t -> key:bool array -> inputs:bool array -> bool array
