(** Ukkonen suffix trees over integer sequences (paper section 2.1.2).

    Construction is O(n) time and space in the input length. Calibro maps
    machine instructions to integers and assigns every terminator /
    PC-relative instruction / call a globally unique "separator" integer;
    because a separator occurs exactly once, no repeated substring can
    contain one, which confines repeats to basic blocks as section 3.3.2
    requires.

    The tree is flat [int] arrays: construction uses one open-addressed
    edge table for the whole build, and the built tree keeps only the
    text and post-order arrays. {!fold_repeats} yields repeats in a
    fixed order that downstream tie-breaking (and so the OAT bytes)
    depends on: a post-order DFS that takes each node's children in the
    order an unseeded per-node [Hashtbl] would fold them (see the header
    of [suffix_tree.ml]). *)

type t
(** A suffix tree built from one integer sequence. *)

val terminal : int
(** Reserved end-of-sequence sentinel (the "$" of the paper's Figure 1);
    inputs must not contain it. *)

val build : int array -> t
(** [build input] constructs the tree with Ukkonen's on-line algorithm.
    @raise Invalid_argument if the input contains {!terminal}. *)

val text : t -> int array
(** The input with the terminal sentinel appended. *)

val input_length : t -> int
(** Length of the original input. *)

val node_count : t -> int
(** Leaves (one per suffix, the terminal's included) plus internal
    nodes, the root included. *)

type repeat = {
  length : int;  (** number of elements in the repeated sequence *)
  positions : int array;  (** sorted start positions; may overlap *)
}

val fold_repeats :
  ?min_length:int ->
  ?max_length:int ->
  t ->
  init:'a ->
  f:('a -> repeat -> 'a) ->
  'a
(** Fold over every right-maximal repeated substring: each internal node
    with at least two descendant leaves yields a repeat whose [length] is
    the node's string depth (paper section 2.1.2). Nodes come in the
    post-order described above; the order is part of the contract. *)

val select : claimed:Bytes.t -> length:int -> int array -> int array
(** [select ~claimed ~length positions] picks the occurrences of a
    repeat of [length] elements that one selection may replace. Walking
    the sorted [positions] left to right, an occurrence that overlaps the
    last one the walk kept is dropped (the paper's "small modification"
    for self-overlapping repeats like "ana" in "banana"). A kept
    occurrence is returned unless one of [claimed]'s bytes [p] ..
    [p + length - 1] is non-zero; [claimed] has one byte per sequence
    position, set where an earlier selection replaced code. A claimed
    occurrence still ends its run: the overlap walk sees every
    position. *)
