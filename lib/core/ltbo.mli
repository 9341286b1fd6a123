(** LTBO.2 — Linking-Time Binary code Outlining (paper section 3.3).

    Runs between per-method compilation and the final link. The four steps
    of section 3.3 map to: candidate selection (via {!Calibro_codegen.Meta}),
    repeat detection ({!Seq_map} + suffix tree), outlining (extract bodies
    ending in [br x30]; replace occurrences with relocated [bl]s), and
    PC-relative patching plus stackmap repositioning. *)

open Calibro_codegen

val outlined_sym_base : int
(** First symbol id given to outlined functions. *)

exception Ltbo_error of string
(** Raised when rewriting breaks an LTBO invariant (currently: stackmap
    consistency after repositioning). Typed so long-lived callers — the
    calibrod worker pool — can answer the offending request with an error
    instead of dying on an untyped [Failure]. *)

type options = {
  min_length : int;  (** shortest candidate sequence, in instructions *)
  max_length : int;  (** longest; bounds the tree traversal *)
  is_hot : Calibro_dex.Dex_ir.method_ref -> bool;
      (** hot-function filtering (section 3.4.2): hot methods participate
          only with their slowpath ranges *)
}

val default_options : options

type decision = {
  d_length : int;
  d_words : int array;
  d_occurrences : (int * int) list;  (** (method index, byte offset) *)
}

type stats = {
  s_candidate_methods : int;
  s_sequence_elements : int;
  s_tree_nodes : int;
  s_repeats_considered : int;
  s_outlined_functions : int;
  s_occurrences_replaced : int;
  s_instructions_saved : int;
  s_memo_hits : int;
      (** detection groups answered from the cache memo; not part of the
          memoized result, so a replayed result reads 0 until {!detect}
          counts its own hit *)
}

val empty_stats : stats
val merge_stats : stats -> stats -> stats

val detect :
  ?cache:Calibro_cache.Cache.t ->
  ?digest_of:(int -> string option) ->
  ?scope:string ->
  options:options ->
  Compiled_method.t array ->
  int list ->
  decision list * stats
(** Detection over one group of method indices (one suffix tree). Pure with
    respect to shared state, so groups may run on separate domains
    ({!Parallel}).

    Detection is also a pure function of the group's token sequences, so
    with [?cache] whole-group results are memoized in the cache's
    ["detect"] namespace under a key built from the cache salt, [?scope],
    the length bounds and each member's canonical token digest
    ({!Seq_map.digest}) — a hit skips sequence mapping, suffix-tree
    construction and selection entirely, and reads [s_memo_hits = 1]. [?digest_of] supplies digests
    already computed at compile time (global method index -> digest under
    the default eligibility policy); hot methods are always re-digested
    with their actual eligibility.

    [?scope] (default [""]) names what the results are relative to beyond
    the tokens: {!Pipeline.build} passes its {!Pipeline.memo_scope}, so a
    dictionary-bound or shelved build never replays another build's
    results, and a rotated dictionary or changed plan can only miss. *)

val detect_result_to_json : decision list * stats -> Calibro_obs.Json.t
val detect_result_of_json :
  Calibro_obs.Json.t -> (decision list * stats) option
(** The memoization codec, exposed for tests. *)

type site = { st_off : int; st_len_words : int; st_sym : int }

val rewrite_method_sites : Compiled_method.t -> site list -> Compiled_method.t
(** Steps 3 and 4 for one method: replace each site with a [bl], rebuild
    the offset map, patch PC-relative instructions in the bytes, remap
    metadata and stackmaps, and validate the result.
    @raise Ltbo_error if stackmap consistency is broken (a bug). *)

type result = {
  methods : Compiled_method.t list;
  outlined : Calibro_oat.Linker.extra_function list;
  stats : stats;
}

val run_with :
  ?sym_base:int ->
  detect_results:(decision list * stats) list ->
  Compiled_method.t list ->
  result
(** Apply a set of detection results: allocate symbols (identical bodies
    are deduplicated), rewrite methods, merge statistics. *)

val candidates : Compiled_method.t list -> int list
(** Indices of the outlinable methods, ascending — the input the LTBO
    driver ({!Parallel.run}) detects over in every round. *)
