(** Instruction-to-integer mapping for suffix-tree input (paper section
    3.3.2): encoded words for plain instructions, fresh unique separators
    for everything a sound binary outliner must never move (terminators,
    calls, PC-relative instructions, link-register uses, embedded data,
    policy-excluded offsets), plus a virtual separator before every branch
    target so candidates never straddle one. See DESIGN.md section 4.2. *)

open Calibro_codegen

type element =
  | Word of int * int  (** (mapped value, byte offset in the method) *)
  | Separator          (** unique value; no corresponding outlinable word *)

type allocator
(** Produces globally unique separator values for one suffix tree. *)

val sep_base : int
(** All separators are >= [sep_base] (above any 32-bit encoding). *)

val new_allocator : unit -> allocator

val fresh_sep : allocator -> int

val iter_method :
  ?eligible:(int -> bool) ->
  Compiled_method.t ->
  allocator ->
  f:(int -> int -> unit) ->
  unit
(** [iter_method cm a ~f] calls [f value off] for each element of [cm]'s
    sequence, in code order: [off] is the word's byte offset, or [-1] for
    a separator. [eligible] is the hot-function-filtering hook: offsets
    where it returns [false] map to separators (section 3.4.2). *)

val map_method :
  ?eligible:(int -> bool) ->
  Compiled_method.t ->
  allocator ->
  (int * element) list
(** {!iter_method}'s elements as a list, each value paired with its
    classification. *)

(** {2 Canonical tokens and digests}

    The compilation cache's fast path: a per-method digest of the token
    run with separator {e values} abstracted away (they are fresh per
    allocator and carry no information the detector's outcome depends
    on). Two methods with equal digests contribute identically to any
    detection group, so a group of unchanged methods can be recognized —
    and its detection result reused — without rebuilding its suffix
    tree. *)

val canonical : ?eligible:(int -> bool) -> Compiled_method.t -> element list
(** [map_method] minus the concrete separator values, same order. *)

val digest : element list -> string
(** Injective-modulo-hash ({!Calibro_chash.Chash}) digest of a canonical
    token run, streamed without materializing the token text. *)

val method_digest : ?eligible:(int -> bool) -> Compiled_method.t -> string
(** [digest (canonical ?eligible cm)]. *)
