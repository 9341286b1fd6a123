(** The end-to-end DEX2OAT-with-Calibro pipeline (paper Figure 5):
    per-method HGraph construction, IR optimization, code generation with
    CTO and LTBO.1 metadata collection, whole-program LTBO.2 (global or
    paralleled suffix trees, optionally multi-round), and the final link. *)

open Calibro_dex

type build = {
  b_config : Config.t;
  b_oat : Calibro_oat.Oat_file.t;
  b_timings : (string * float) list;
      (** (phase, seconds), in order — a view derived from the
          [Calibro_obs] spans the build records (monotonic clock);
          kept because Table 6 consumes exactly this shape *)
  b_ltbo_stats : Ltbo.stats option;
  b_cto_hits : (string * int) list;   (** CTO pattern census, summed *)
  b_shelved : int;
      (** methods parked on the shelf by [?shelve] (0 without a plan) *)
  b_cache_hits : int;
      (** cache hits this build scored: method-tier lookups that hit
          plus detection groups replayed from the memo
          ({!Ltbo.stats.s_memo_hits}). Counted at this build's own
          lookups, so concurrent builds on the same cache never leak in;
          0 without a cache. *)
}

exception Build_error of string
(** Raised on invalid input (checker failures, undefined callees). *)

val env_cache : Calibro_cache.Cache.t option Lazy.t
(** The ambient compilation cache: an on-disk store at [CALIBRO_CACHE_DIR]
    when that variable is set and non-empty, shared by every build in the
    process; [None] otherwise. *)

val build :
  ?cache:Calibro_cache.Cache.t option ->
  ?config:Config.t ->
  ?dict:Calibro_oat.Linker.dict ->
  ?shelve:Calibro_shelve.Shelve.plan ->
  Dex_ir.apk ->
  build
(** Compile an application under the given evaluation configuration
    (default: {!Config.baseline}).

    [?cache] selects the compilation cache: omitted, the ambient
    {!env_cache} is used; [Some c] uses [c]; [None] forces a cold build
    regardless of the environment (the bench harness measures cold times
    this way). With a cache, per-method artifacts that key-hit skip
    HGraph/IR/codegen, and LTBO detection groups whose members' token
    digests are unchanged reuse their memoized decisions — the warm output
    is byte-identical to a cold build because both layers memoize pure
    functions of content-addressed inputs. Detection is memoized under
    the build's {!memo_scope}.

    [?dict] links against a store-wide shared outline dictionary: every
    outlined body the dictionary carries binds to its shared slot at
    {!Calibro_codegen.Abi.dict_base} instead of being placed in the local
    text segment, and the output records the dictionary digest
    ({!Calibro_oat.Oat_file.t.dict_digest}) when anything bound.

    [?shelve] composes profile-driven method shelving: cold methods
    (outside the plan's warm set) are compiled to fixed-size shelf stubs,
    their original bodies parked in the shelf image at
    {!Calibro_codegen.Abi.shelf_base}, and LTBO mines only the surviving
    warm set. The per-method cache is shared with unshelved builds (the
    split runs post-compile). The output records the policy digest in
    {!Calibro_oat.Oat_file.t.shelve}.

    LTBO runs {!Parallel.run} with [parallel_trees] as K and
    [ltbo_rounds] as the round count; the two compose. *)

val memo_scope :
  ?dict:Calibro_oat.Linker.dict -> ?shelve:Calibro_shelve.Shelve.plan ->
  unit -> string
(** The detection memo scope {!build} passes to {!Parallel.run}: the
    dictionary and shelve-policy digests, each tagged ([""] for a plain
    build). Warm-set-only results never replay for a full-set build, and
    a rotated dictionary or changed plan can only miss. *)

val method_key :
  config:Config.t ->
  slot_of_method:(Dex_ir.method_ref -> int) ->
  slot:int ->
  Dex_ir.meth ->
  string
(** The per-method cache key (exposed for tests): content hash of the
    method IR, its slot, its callees' slots in call order, the codegen
    configuration bits and the cache salt.
    @raise Build_error via [slot_of_method] on an undefined callee. *)

val total_time : build -> float

val text_size : build -> int
(** Text-segment size in bytes: the paper's headline metric. *)

val reduction_vs : baseline:build -> build -> float
(** Fractional text-size reduction relative to a baseline build. *)
