(* Instruction -> integer mapping for suffix-tree input (paper section
   3.3.2): "the encoding number of each instruction can be directly used in
   the sequence, except that all terminator instructions should be mapped
   to a single unique separator number".

   We map to a separator not just terminators but every word that a
   sound binary outliner must never move into an outlined function:

   - terminator instructions (the paper's rule);
   - PC-relative addressing instructions — their displacement is specific
     to one address, so a shared outlined copy cannot satisfy two call
     sites (the [bl sym] form is exempt: it is relocated by symbol, but it
     is a call and calls are excluded anyway);
   - calls and any instruction reading or writing x30 — the outlined
     function returns via [br x30], which both requires the entry [bl]'s
     link value to survive and forbids the body from depending on x30
     (DESIGN.md section 4.1);
   - embedded data words (known from the LTBO.1 metadata, not decoding);
   - words in offsets the policy rules out (hot non-slowpath code under
     hot-function filtering);
   - branch-target boundaries: a virtual separator is inserted *before*
     every branch target so no candidate sequence straddles one (a branch
     into the middle of an outlined body cannot be patched).

   Each separator value is unique, so no repeated subsequence can ever
   contain one (a repeat needs at least two occurrences). *)

open Calibro_aarch64
open Calibro_codegen

type element =
  | Word of int * int  (** (mapped value, byte offset in method) *)
  | Separator          (** unique value, no corresponding word *)

type allocator = { mutable next_sep : int }

let sep_base = 1 lsl 33 (* above any 32-bit encoding *)

let new_allocator () = { next_sep = sep_base }

let fresh_sep a =
  let v = a.next_sep in
  a.next_sep <- v + 1;
  v

let sep_word word =
  let instr = Decode.decode word in
  Isa.is_terminator instr || Isa.is_call instr || Isa.is_pc_relative instr
  || Isa.reads_lr instr || Isa.writes_lr instr

(* [eligible off] is the policy hook (hot-function filtering); return false
   to exclude the word at [off].

   Separator values are handed out as if the code were walked backwards
   (the last separator of the method gets the allocator's next value),
   which is the order the committed digests were produced with: values
   reach the suffix tree's child order through [Hashtbl.hash]. So a first
   pass classifies the words and counts the separators, and the second
   emits in code order, numbering separators downwards. *)
let iter_method ?(eligible = fun _ -> true) (cm : Compiled_method.t) a ~f =
  let meta = cm.Compiled_method.meta in
  let code = cm.Compiled_method.code in
  let n_words = Bytes.length code / 4 in
  (* per word: bit 0 = maps to a separator, bit 1 = a separator precedes
     it (a branch targets it) *)
  let kind = Bytes.make n_words '\000' in
  List.iter
    (fun (_, tgt) ->
      if tgt > 0 && tgt land 3 = 0 && tgt < n_words * 4 then
        Bytes.unsafe_set kind (tgt / 4) '\002')
    meta.Meta.pc_rel;
  let n_seps = ref 0 in
  for w = 0 to n_words - 1 do
    let off = w * 4 in
    let sep =
      Meta.is_embedded meta off
      || (not (eligible off))
      || sep_word (Encode.word_of_bytes code off)
    in
    let k = Char.code (Bytes.unsafe_get kind w) in
    if sep then Bytes.unsafe_set kind w (Char.unsafe_chr (k lor 1));
    n_seps := !n_seps + (k lsr 1) + Bool.to_int sep
  done;
  let next = ref (a.next_sep + !n_seps) in
  a.next_sep <- !next;
  let sep () =
    decr next;
    f !next (-1)
  in
  for w = 0 to n_words - 1 do
    let k = Char.code (Bytes.unsafe_get kind w) in
    if k land 2 <> 0 then sep ();
    if k land 1 <> 0 then sep ()
    else f (Encode.word_of_bytes code (w * 4)) (w * 4)
  done

let map_method ?eligible (cm : Compiled_method.t) a : (int * element) list =
  let out = ref [] in
  iter_method ?eligible cm a ~f:(fun v off ->
      out := (v, if off < 0 then Separator else Word (v, off)) :: !out);
  List.rev !out

(* ---- Canonical tokens and digests (compilation-cache fast path) --------

   Separator values are fresh per allocator, so two identical methods never
   produce equal [map_method] outputs. The canonical form abstracts the
   separator values away ([Separator] carries none), leaving exactly the
   information the detector's outcome depends on: which slots are words
   (and their values/offsets) and which are separators. Equal canonical
   forms therefore guarantee equal detection behavior, which is what lets
   the cache key a whole detection group by per-method digests. *)

let canonical ?eligible (cm : Compiled_method.t) : element list =
  List.map snd (map_method ?eligible cm (new_allocator ()))

let digest (elements : element list) : string =
  (* Streamed into the hash — no intermediate text. The token framing is
     still unambiguous: a tag byte per element, fixed-width ints for the
     word value and offset (the old printed form separated them with
     ':'/';' for the same reason). *)
  let module Chash = Calibro_chash.Chash in
  let st = Chash.init () in
  List.iter
    (function
      | Word (v, off) ->
        Chash.feed_string st "W";
        Chash.feed_int st v;
        Chash.feed_int st off
      | Separator -> Chash.feed_string st "S")
    elements;
  Chash.to_hex (Chash.finalize st)

let method_digest ?eligible cm = digest (canonical ?eligible cm)
