(** The ".dexsim" text format: a one-pass parser and a printer that
    round-trips ([parse (to_string a) = Ok a]). *)

exception Parse_error of { line : int; message : string }
(** Raised inside the parser only; {!parse} turns it into [Error]. *)

type memo = {
  find : string -> (Dex_ir.meth * int) option;
  add : string -> Dex_ir.meth * int -> unit;
}
(** A store of parsed method bodies, keyed by strings {!parse} computes:
    the {!Calibro_chash.Chash} digest of a body's source bytes (the text
    after its [.method] through the end of its [.end]) followed by its
    class name. A value is the parsed method and the number of lines the
    parser counted across the body. The store decides what it keeps and
    for how long ({!Calibro_cache.Cache.body_memo} bounds it); it must
    only return what [add] gave it under the same key. *)

val parse : ?memo:memo -> string -> (Dex_ir.apk, string) result
(** Parse a whole file. [Error] carries ["line N: message"], for the
    first fault in file order.

    With [memo], each method body is first found by a scan for its
    [.end] and looked up. A hit is used as it is: the parser skips the
    body and advances its line count by the stored count. A miss is
    parsed, and added only if its parse consumed exactly the scanned
    span, which makes the span's bytes and class decide the result. So
    for every text and whatever the memo holds, [parse ~memo text =
    parse text]: the same apk on [Ok] and the same message on [Error].
    The methods of the apk are shared with the memo and must not be
    mutated. Each body looked up is counted in [dex.bodies_scanned]. *)

val to_string : Dex_ir.apk -> string
(** The printer: canonical text, one instruction per line, every branch
    target labelled [:L<index>]. *)
