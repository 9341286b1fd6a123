(** Content-addressed compilation cache (ShareJIT-style, see PAPERS.md).

    Three tiers share one store:

    - a typed {b method} tier holding per-method compiled artifacts
      ({!Calibro_codegen.Compiled_method.t} plus the method's canonical
      LTBO token digest, computed once at store time);
    - a generic namespaced {b JSON} tier for any other deterministic
      intermediate (the pipeline memoizes per-group LTBO detection results
      there);
    - a memory-only {b body} tier of parsed method bodies, which
      {!Calibro_dex.Dex_text.parse} consults through {!body_memo}.

    Each tier lives in memory (FIFO eviction past [max_entries]); the
    method and JSON tiers, when [dir] is given, also live on disk as one
    JSON file per entry
    serialized with the lib/obs codec. Every disk entry embeds a
    {!Calibro_chash.Chash} digest of its payload; a truncated, bit-flipped or otherwise unreadable entry is
    detected on load, counted in [cache.<ns>.disk_corrupt] and treated as
    a miss — corruption can cost a recompile, never wrong code.

    Keys are caller-computed content hashes (see {!key}); the store never
    interprets them. All operations are safe to call from PlOpti worker
    domains (the memory tiers are mutex-protected; disk writes go through
    a temp file and an atomic rename).

    Observability: per-namespace counters [cache.<ns>.hits] (memory),
    [.disk_hits], [.misses], [.stores], [.evictions], [.disk_corrupt],
    [.tmp_swept] are exported through {!Calibro_obs.Obs.Counter}. *)

type t

val create : ?dir:string -> ?max_entries:int -> unit -> t
(** [create ()] is a memory-only cache. [~dir] adds the on-disk tier
    rooted there (created on first store). [~max_entries] caps each
    in-memory tier, oldest-first eviction (default 65536); the disk tier
    is unbounded. Opening a disk tier sweeps orphan [*.tmp.*] files left
    by writers that died mid-store (counted per namespace in
    [cache.<ns>.tmp_swept]). *)

val dir : t -> string option

val salt : string
(** Codegen version salt. Bump {!version} whenever codegen, LTBO or the
    serialized formats change meaning: every key changes, so stale
    entries (memory or disk) can never be returned. *)

val key : string list -> string
(** [key parts] is the {!Calibro_chash.Chash} hex digest of [parts]
    (streamed, one pass) under an
    unambiguous length-prefixed framing (so [["ab";"c"]] and
    [["a";"bc"]] differ). Callers include {!salt} in [parts]. *)

(** {2 Typed method tier} *)

type method_entry = {
  ce_method : Calibro_codegen.Compiled_method.t;
  ce_token_digest : string;
      (** Canonical LTBO token digest of [ce_method]
          ({!Calibro_core.Seq_map} fast path), computed at store time. *)
}

val find_method : t -> string -> method_entry option
val add_method : t -> string -> method_entry -> unit

val method_entry_to_json : method_entry -> Calibro_obs.Json.t
val method_entry_of_json :
  Calibro_obs.Json.t -> (method_entry, string) result
(** The codec is exposed so tests can round-trip artifacts directly. *)

(** {2 Generic JSON tier} *)

val find_json : t -> ns:string -> string -> Calibro_obs.Json.t option
(** [ns] must not be ["method"] (reserved for the typed tier) and must be
    a single path component. *)

val add_json : t -> ns:string -> string -> Calibro_obs.Json.t -> unit

(** {2 Parsed-body tier} *)

val body_memo : t -> Calibro_dex.Dex_text.memo
(** The memo {!Calibro_dex.Dex_text.parse} reads and fills: a parsed
    method and its line count under the parser's key (the digest of the
    method's source bytes, then its class name). The parser only stores
    a body whose parse consumed exactly the bytes the key digests, so
    [parse ~memo:(body_memo t) text = parse text] for every text. The
    tier holds at most [max_entries] bodies, evicting the oldest first,
    and is never written to disk. The bound counts bodies, not bytes: a
    body of the generated apps (about 2 KB of text) keeps about 4.3 KB
    of IR alive, so a tier filled to the default 65536 bodies holds
    about 270 MB, on top of the method tier, and larger bodies hold
    proportionally more. Counters: [cache.body.hits], [.misses],
    [.stores], [.evictions]. *)

(** {2 Introspection (tests, fault injection)} *)

val entry_files : t -> string list
(** Every on-disk entry file under [dir], sorted; [[]] for a memory-only
    cache. The corruption tests hand these to {!Calibro_check.Fault}. *)

val mem_entries : t -> int
(** Total in-memory entries across all three tiers. *)
