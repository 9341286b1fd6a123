(* The code-redundancy analysis of paper section 2.2 (Table 1, Figure 3):

   1. map the binary code into a sequence of unsigned integers — here the
      instruction encodings themselves, with embedded data skipped using
      the LTBO.1 metadata;
   2. build a suffix tree with Ukkonen's algorithm;
   3. detect the repetitive sequences (internal nodes with >= 2 leaves);
   4. estimate the potential code size savings with the Figure 2 model,
      greedily assigning non-overlapping occurrences to the most
      profitable sequences.

   This estimate is deliberately optimistic — no basic-block confinement,
   no LR constraints, no candidate-method exclusions — which is why the
   paper's Table 1 (~25%) exceeds the realized reductions of Table 4
   (~19%): the same gap this module reproduces. *)

open Calibro_aarch64
open Calibro_codegen
open Calibro_oat
open Calibro_suffix_tree

type analysis = {
  a_text_words : int;         (** analysed instruction count *)
  a_repeats : int;            (** right-maximal repeated sequences *)
  a_saved_instructions : int; (** estimated by the benefit model *)
  a_ratio : float;            (** estimated reduction ratio *)
  a_histogram : (int * int) list;
      (** Figure 3: (sequence length, total number of repeats) *)
}

(* Map the whole OAT text into one integer sequence; embedded data words
   become unique separators so they never join repeats. *)
let sequence_of_oat (oat : Oat_file.t) =
  let sep = ref (1 lsl 33) in
  let out = ref [] in
  List.iter
    (fun (me : Oat_file.method_entry) ->
      let words = me.me_size / 4 in
      for w = 0 to words - 1 do
        let off = w * 4 in
        if Meta.is_embedded me.me_meta off then begin
          incr sep;
          out := !sep :: !out
        end
        else
          out := Encode.word_of_bytes oat.text (me.me_offset + off) :: !out
      done;
      incr sep;
      out := !sep :: !out)
    oat.methods;
  Array.of_list (List.rev !out)

let analyze ?(min_length = 2) ?(max_length = 64) (oat : Oat_file.t) : analysis
    =
  let seq = sequence_of_oat oat in
  let tree = Suffix_tree.build seq in
  (* Each worthwhile repeat with its occurrence count and saving, last
     emitted first. *)
  let repeats =
    Suffix_tree.fold_repeats ~min_length ~max_length tree ~init:[]
      ~f:(fun acc (r : Suffix_tree.repeat) ->
        let count = Array.length r.positions in
        if Benefit.worthwhile ~length:r.length ~repeats:count then
          (Benefit.saving ~length:r.length ~repeats:count, count, r) :: acc
        else acc)
  in
  (* Figure 3 histogram over all worthwhile repeats. *)
  let hist = Hashtbl.create 64 in
  List.iter
    (fun (_, count, (r : Suffix_tree.repeat)) ->
      Hashtbl.replace hist r.length
        (count + Option.value ~default:0 (Hashtbl.find_opt hist r.length)))
    repeats;
  let histogram =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist [] |> List.sort compare
  in
  (* Greedy non-overlapping selection, most profitable first. *)
  let ordered =
    List.stable_sort (fun (sa, _, _) (sb, _, _) -> compare sb sa) repeats
  in
  let claimed = Bytes.make (Array.length seq) '\000' in
  let saved = ref 0 in
  List.iter
    (fun (_, _, (r : Suffix_tree.repeat)) ->
      let len = r.length in
      let usable = Suffix_tree.select ~claimed ~length:len r.positions in
      let n = Array.length usable in
      if Benefit.worthwhile ~length:len ~repeats:n then begin
        Array.iter (fun p -> Bytes.fill claimed p len '\001') usable;
        saved := !saved + Benefit.saving ~length:len ~repeats:n
      end)
    ordered;
  let words = Array.length seq in
  { a_text_words = words;
    a_repeats = List.length repeats;
    a_saved_instructions = !saved;
    a_ratio = (if words = 0 then 0.0 else float_of_int !saved /. float_of_int words);
    a_histogram = histogram }

(* ---- Figure 4 census: the three ART-specific patterns ----------------- *)

type pattern_census = {
  c_java_call : int;        (** Figure 4a occurrences *)
  c_runtime_call : int;     (** Figure 4b occurrences *)
  c_stack_check : int;      (** Figure 4c occurrences *)
}

let pattern_census (oat : Oat_file.t) =
  let java = ref 0 and rt = ref 0 and stack = ref 0 in
  List.iter
    (fun (me : Oat_file.method_entry) ->
      let words = me.me_size / 4 in
      let word w = Encode.word_of_bytes oat.text (me.me_offset + (w * 4)) in
      for w = 0 to words - 2 do
        if not (Meta.is_embedded me.me_meta (w * 4)) then begin
          match (Decode.decode (word w), Decode.decode (word (w + 1))) with
          | Isa.Ldr { rt = 30; rn = 0; _ }, Isa.Blr 30 -> incr java
          | Isa.Ldr { rt = 30; rn = 19; _ }, Isa.Blr 30 -> incr rt
          | ( Isa.Add_sub_imm { op = Isa.SUB; rd = 16; rn = 31; imm12 = 2;
                                shift12 = true; _ },
              Isa.Ldr { rt = 31; rn = 16; _ } ) ->
            incr stack
          | _ -> ()
        end
      done)
    oat.methods;
  { c_java_call = !java; c_runtime_call = !rt; c_stack_check = !stack }
