(** PlOpti — paralleled suffix trees (paper section 3.4.1): partition the
    candidate methods into K groups, detect repeats per group (one suffix
    tree each) on a fork-join pool of OCaml 5 domains, then rewrite. The
    cost is cross-tree repeats going unseen — the tolerable code-size
    loss of Table 4. *)

open Calibro_codegen

val partition : k:int -> seed:int -> int list -> int list list
(** Deterministic pseudo-random even partition ("a simple and random
    partition instead of clustering"). Groups are non-empty; their union is
    the input. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** [map f a] is [Array.map f a], computed by the caller together with
    whichever helper domains of the process-wide pool are idle. The pool
    holds up to [Domain.recommended_domain_count () - 1] helpers,
    spawned on first use and parked between calls; a failed
    [Domain.spawn] leaves it smaller instead of failing the call.
    Domains claim indices from one atomic counter and write results by
    index, so the output never depends on scheduling. Arrays of length 0
    or 1 run on the caller alone.

    Calls nest, and concurrent calls from several domains compose: each
    claims only idle helpers and never waits for another call's helpers.
    A call also claims only as many helpers as there are idle cores: the
    caller, the helpers at work and the domains inside {!occupy} never
    number more than [Domain.recommended_domain_count ()] because of a
    claim. [f] must be safe to run on several domains at once.

    If [f] raises, no further index is claimed; once every claimed
    helper is done, [map] re-raises the exception (with its backtrace)
    of the lowest failing index, the one [Array.map] would have raised.
    The helper that ran it lives on. *)

val occupy : (unit -> 'a) -> 'a
(** [occupy f] runs [f], counting the calling domain as busy meanwhile,
    so that {!map} calls anywhere in the process leave its core alone.
    For long-lived domains that do their own work, such as a server's
    workers, around their whole life: while every core has such a
    domain, {!map} runs on its caller alone and spawns no helper. Nests;
    a {!map} caller or a helper is already counted. *)

val allocated_bytes : unit -> float
(** [Gc.allocated_bytes ()] of the calling domain plus the bytes pool
    helpers allocated for the {!map} calls it made, nested calls
    included. [Gc.allocated_bytes] alone misses work {!map} handed to
    helpers. *)

val helpers : unit -> int
(** Helper domains spawned so far (never more than
    [Domain.recommended_domain_count () - 1]). *)

val detect_parallel :
  ?cache:Calibro_cache.Cache.t ->
  ?digest_of:(int -> string option) ->
  ?scope:string ->
  options:Ltbo.options ->
  Compiled_method.t array ->
  int list list ->
  (Ltbo.decision list * Ltbo.stats) list
(** {!Ltbo.detect} over each group under {!map}, one
    [plopti.detect_group] span per group inside a
    [plopti.detect_parallel] span. Results are in input group order.
    [?cache]/[?digest_of]/[?scope] memoize per-group detection as in
    {!Ltbo.detect}; the cache is safe to share across domains. *)

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
