(** Off-heap append arena for OAT text and wire frames.

    A growable [Bigarray.Array1] of bytes with an append cursor. The
    serving hot path uses it to build a complete response frame —
    header, OAT container, stats — in one off-heap buffer and push it to
    the socket with a single staged write, instead of the old
    [Buffer]-and-[^]-chain that copied the text segment several times
    per served build. The linker lays out and relocates the text segment
    in the same arena before the one blit into the final [bytes].

    Arenas are not thread-safe; {!with_scratch} hands out a per-domain
    reusable arena and falls back to a fresh one when the domain's
    scratch is already in use (e.g. two threads of one domain building
    concurrently), so reuse is an optimization, never a correctness
    hazard. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh arena; [capacity] is the initial backing size (bytes). *)

val length : t -> int
(** Bytes appended so far. *)

val capacity : t -> int

val clear : t -> unit
(** Reset the cursor to 0; keeps the backing store. *)

(** {2 Appending} *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_substring : t -> string -> off:int -> len:int -> unit
val add_bytes : t -> bytes -> unit
val add_subbytes : t -> bytes -> off:int -> len:int -> unit

val add_i32_le : t -> int -> unit
(** Low 32 bits, little-endian — the wire and container int format. *)

val add_f64_le : t -> float -> unit
(** IEEE double, little-endian (wire stats). *)

val reserve : t -> int -> int
(** [reserve a n] appends [n] zero bytes and returns their start offset:
    the backpatch idiom for length fields written before their payload
    is sized. *)

(** {2 Random access (relocation, backpatching)} *)

val get_u32_le : t -> int -> int
val set_u32_le : t -> int -> int -> unit

(** {2 Draining} *)

val blit_to_bytes : t -> src_off:int -> bytes -> dst_off:int -> len:int -> unit

val to_bytes : t -> bytes
(** Copy of the valid window [0, length). *)

exception Write_error of string
(** A write syscall returned 0 for a nonempty buffer — a descriptor this
    writer cannot make progress on (retrying would spin forever). *)

val write_fd : ?write:(Unix.file_descr -> bytes -> int -> int -> int) ->
  t -> Unix.file_descr -> unit
(** Write the valid window to [fd], staging through a reused chunk;
    retries short writes and [EINTR]. Raises [Unix.Unix_error] on real
    write failures (e.g. [EPIPE] on client disconnect) and {!Write_error}
    on a zero-length write. [?write] substitutes the write syscall
    (tests). *)

(** {2 Per-domain scratch} *)

val with_scratch : (t -> 'a) -> 'a
(** Run [f] with this domain's scratch arena, cleared. If the scratch is
    busy (re-entrant call, or another thread of this domain holds it), a
    fresh arena is used instead. The arena must not escape [f]. After [f], an
    oversized backing store is trimmed so one huge build does not pin
    its peak footprint in every domain forever. *)
