(** Content hashing: stdlib [Digest] (MD5), the tree's one hash regime.

    Hash values only name things — compilation-cache keys, LTBO
    detection-memo groups, router shard affinity, the store dictionary
    and the shelving policy — and no produced OAT byte depends on one.
    The inputs are trusted build artifacts, so the hash needs to be
    uniform, stable and far cheaper than the work it deduplicates
    (ShareJIT's lesson), not cryptographic. *)

type t = string
(** 16 bytes, binary (a [Digest.t]). *)

val string : string -> t
val bytes : bytes -> t

(** {2 Streaming}: the digest of the concatenation of everything fed. *)

type state

val init : unit -> state
val feed_string : state -> string -> unit

val feed_int : state -> int -> unit
(** Feeds the int as 8 little-endian bytes — how token runs
    ({!Seq_map.digest}) are hashed without printing them. *)

val finalize : state -> t
(** Pure over the state: feeding may continue afterwards. *)

val to_hex : t -> string
(** Lowercase hex, 32 chars. Raises [Invalid_argument] unless [t] is 16
    bytes. *)

module Md5 : sig
  val bytes : bytes -> t
end
(** Same as {!bytes}; kept under this name because [perfbench/pb.ml]
    calls it. *)

val backend_name : unit -> string
(** Always ["md5"]; kept because [perfbench/pb.ml] records it. *)
