(** Output-corruption measurement: average Hamming distance between two
    circuits over shared pseudorandom input patterns. *)

(** [distance ~words (a, ka) (b, kb)]: the average fraction of differing
    output bits, in [0, 1], over [words] 64-pattern words.  Each side's last
    [Array.length k] inputs are held at the constant bits [k] (a key); its
    other inputs, in order, receive the signals of one pattern stream shared
    by both sides.  Raises [Invalid_argument] when [words] < 1, when the
    output counts differ, when there are no outputs or when a side has more
    constant bits than inputs. *)
val distance :
  ?seed:int ->
  words:int ->
  Orap_netlist.Netlist.t * bool array ->
  Orap_netlist.Netlist.t * bool array ->
  float
