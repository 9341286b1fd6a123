(** PlOpti — paralleled suffix trees (paper section 3.4.1): partition the
    candidate methods into K groups, detect repeats per group (one suffix
    tree each) on OCaml 5 domains, then rewrite. The cost is cross-tree
    repeats going unseen — the tolerable code-size loss of Table 4. *)

open Calibro_codegen

val partition : k:int -> seed:int -> int list -> int list list
(** Deterministic pseudo-random even partition ("a simple and random
    partition instead of clustering"). Groups are non-empty; their union is
    the input. *)

val detect_parallel :
  ?max_domains:int ->
  ?cache:Calibro_cache.Cache.t ->
  ?digest_of:(int -> string option) ->
  ?scope:string ->
  options:Ltbo.options ->
  Compiled_method.t array ->
  int list list ->
  (Ltbo.decision list * Ltbo.stats) list
(** Run {!Ltbo.detect} over each group on a fixed pool of worker domains
    pulling group indices from a shared atomic counter (no wave barrier: a
    worker that finishes a cheap group immediately claims the next). The
    pool size defaults to [Domain.recommended_domain_count () - 1] (min 1;
    sequential on a single-core host); [?max_domains] overrides it, mainly
    for tests. Results are in input group order. [?cache]/[?digest_of]/
    [?scope] memoize per-group detection as in {!Ltbo.detect}; the cache is
    safe to share across worker domains. *)

val run :
  ?cache:Calibro_cache.Cache.t ->
  ?digest_of:(int -> string option) ->
  ?scope:string ->
  ?options:Ltbo.options ->
  k:int ->
  rounds:int ->
  Compiled_method.t list ->
  Ltbo.result
(** The one LTBO driver: up to [rounds] rounds (at least one) of
    detection over {!Ltbo.candidates} then {!Ltbo.run_with}, stopping
    early at a round that outlines nothing. [k <= 1] detects with one
    plain {!Ltbo.detect} over the candidates in ascending order (the
    paper's global suffix tree; no [plopti.*] span); [k > 1] is PlOpti,
    {!detect_parallel} over [partition ~k ~seed:42]. Each round after the
    first re-partitions the rewritten methods and allocates symbols past
    the previous rounds'. [?cache]/[?scope] as in {!Ltbo.detect};
    [?digest_of] describes the input methods and applies to round 1
    only. *)
