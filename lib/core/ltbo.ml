(* LTBO.2 — Linking-Time Binary code Outlining (paper section 3.3).

   Runs after all methods are compiled and before the final link, in four
   steps exactly as the paper lays out:

   1. choosing candidate methods (3.3.1): methods with indirect jumps and
      Java native methods are excluded via the LTBO.1 metadata; under
      hot-function filtering, hot methods participate only with their
      slowpath ranges (3.4.2);
   2. detecting repetitive code sequences (3.3.2): the candidate code is
      mapped to an integer sequence ({!Seq_map}) and a suffix tree finds
      the repeats;
   3. outlining (3.3.3): repeats worth outlining under the Figure 2
      benefit model are extracted into outlined functions ending in
      [br x30]; each occurrence is replaced by one [bl] carrying a symbol
      relocation (bound by the later link, per section 3.2);
   4. patching PC-relative addressing instructions (3.3.4): every recorded
      (instruction, target) pair is re-encoded against the new layout; the
      stackmaps are repositioned the same way (3.5). *)

open Calibro_aarch64
open Calibro_codegen
open Calibro_suffix_tree
module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json
module Cache = Calibro_cache.Cache
module Arena = Calibro_oat.Arena

let outlined_sym_base = 0x500000

exception Ltbo_error of string
(* The typed failure for an input that breaks an LTBO invariant
   (stackmap-consistency validation after rewriting). A long-lived caller
   — the calibrod worker — maps this to a per-request error; it must
   never surface as an untyped [Failure]. *)

type options = {
  min_length : int;          (** shortest candidate sequence, in instructions *)
  max_length : int;          (** longest, bounds tree traversal *)
  is_hot : Calibro_dex.Dex_ir.method_ref -> bool;
      (** hot-function filtering predicate (3.4.2); hot methods only
          outline their slowpaths *)
}

let default_options =
  { min_length = 2; max_length = 64; is_hot = (fun _ -> false) }

(* An accepted outlining decision. *)
type decision = {
  d_length : int;  (** instructions *)
  d_words : int array;  (** the sequence's encoded words *)
  d_occurrences : (int * int) list;  (** (method index, byte offset) *)
}

type stats = {
  s_candidate_methods : int;
  s_sequence_elements : int;
  s_tree_nodes : int;
  s_repeats_considered : int;
  s_outlined_functions : int;
  s_occurrences_replaced : int;
  s_instructions_saved : int;
  s_memo_hits : int;
}

let empty_stats =
  { s_candidate_methods = 0; s_sequence_elements = 0; s_tree_nodes = 0;
    s_repeats_considered = 0; s_outlined_functions = 0;
    s_occurrences_replaced = 0; s_instructions_saved = 0; s_memo_hits = 0 }

let merge_stats a b =
  { s_candidate_methods = a.s_candidate_methods + b.s_candidate_methods;
    s_sequence_elements = a.s_sequence_elements + b.s_sequence_elements;
    s_tree_nodes = a.s_tree_nodes + b.s_tree_nodes;
    s_repeats_considered = a.s_repeats_considered + b.s_repeats_considered;
    s_outlined_functions = a.s_outlined_functions + b.s_outlined_functions;
    s_occurrences_replaced = a.s_occurrences_replaced + b.s_occurrences_replaced;
    s_instructions_saved = a.s_instructions_saved + b.s_instructions_saved;
    s_memo_hits = a.s_memo_hits + b.s_memo_hits }

(* ---- Step 2: detection over one group of methods ---------------------- *)

(* Build the mapped sequence for [group] (indices into [methods]) and
   detect repeats. Returns decisions (occurrences expressed against global
   method indices) and statistics. *)
let detect_uncached ~options (methods : Compiled_method.t array)
    (group : int list) : decision list * stats =
  let a = Seq_map.new_allocator () in
  (* Concatenate per-method element lists; record the provenance of every
     sequence slot. *)
  let values = ref [] and prov = ref [] in
  let n_elements = ref 0 in
  Obs.span ~cat:"ltbo" "ltbo.map_sequence" (fun () ->
  List.iter
    (fun mi ->
      let cm = methods.(mi) in
      let hot = options.is_hot cm.Compiled_method.name in
      let eligible off =
        (not hot) || Meta.in_slowpath cm.Compiled_method.meta off
      in
      let elements = Seq_map.map_method ~eligible cm a in
      List.iter
        (fun (v, elt) ->
          values := v :: !values;
          incr n_elements;
          prov :=
            (match elt with
             | Seq_map.Word (_, off) -> Some (mi, off)
             | Seq_map.Separator -> None)
            :: !prov)
        elements;
      (* Hard separator at every method boundary. *)
      values := Seq_map.fresh_sep a :: !values;
      incr n_elements;
      prov := None :: !prov)
    group);
  let seq = Array.of_list (List.rev !values) in
  let prov = Array.of_list (List.rev !prov) in
  let tree =
    Obs.span ~cat:"ltbo" "ltbo.tree_build"
      ~args:(fun () -> [ ("sequence_elements", Json.Int !n_elements) ])
      (fun () -> Suffix_tree.build seq)
  in
  (* Gather repeats worth considering. *)
  let considered = ref 0 in
  let candidates =
    Obs.span ~cat:"ltbo" "ltbo.fold_repeats" (fun () ->
        Suffix_tree.fold_repeats ~min_length:options.min_length
          ~max_length:options.max_length tree ~init:[]
          ~f:(fun acc (r : Suffix_tree.repeat) ->
            incr considered;
            let repeats = List.length r.Suffix_tree.positions in
            if Benefit.worthwhile ~length:r.Suffix_tree.length ~repeats then
              r :: acc
            else acc))
  in
  (* Largest estimated saving first; ties broken towards longer sequences
     for stability. *)
  let candidates =
    List.sort
      (fun (a : Suffix_tree.repeat) (b : Suffix_tree.repeat) ->
        let sa =
          Benefit.saving ~length:a.Suffix_tree.length
            ~repeats:(List.length a.Suffix_tree.positions)
        and sb =
          Benefit.saving ~length:b.Suffix_tree.length
            ~repeats:(List.length b.Suffix_tree.positions)
        in
        match compare sb sa with
        | 0 -> compare b.Suffix_tree.length a.Suffix_tree.length
        | c -> c)
      candidates
  in
  (* Greedy selection with a global claimed-interval set (per method). *)
  let claimed : (int, Interval_set.t) Hashtbl.t = Hashtbl.create 16 in
  let overlaps mi off len =
    match Hashtbl.find_opt claimed mi with
    | None -> false
    | Some s -> Interval_set.overlaps s off (off + len)
  in
  let claim mi off len =
    let s =
      match Hashtbl.find_opt claimed mi with
      | Some s -> s
      | None ->
        let s = Interval_set.create () in
        Hashtbl.replace claimed mi s;
        s
    in
    Interval_set.add s off (off + len)
  in
  let decisions = ref [] in
  let saved = ref 0 and occ_total = ref 0 in
  Obs.span ~cat:"ltbo" "ltbo.select" (fun () ->
  List.iter
    (fun (r : Suffix_tree.repeat) ->
      let len = r.Suffix_tree.length in
      let byte_len = len * 4 in
      (* Self-overlap filter first (sequence positions), then the global
         claimed filter (byte ranges). *)
      let positions =
        Suffix_tree.non_overlapping ~length:len r.Suffix_tree.positions
      in
      let usable =
        List.filter_map
          (fun pos ->
            match prov.(pos) with
            | None -> None (* starts at a separator slot: impossible, guard *)
            | Some (mi, off) ->
              if overlaps mi off byte_len then None else Some (mi, off))
          positions
      in
      let repeats = List.length usable in
      if Benefit.worthwhile ~length:len ~repeats then begin
        Obs.Counter.incr "ltbo.decisions_accepted";
        Obs.Histogram.observe "ltbo.decision_length_insns" (float_of_int len);
        Obs.Histogram.observe "ltbo.decision_occurrences"
          (float_of_int repeats);
        List.iter (fun (mi, off) -> claim mi off byte_len) usable;
        let first_pos =
          (* words of the sequence body, taken from the tree's text *)
          match List.nth_opt positions 0 with
          | Some p -> p
          | None -> assert false
        in
        let text = Suffix_tree.text tree in
        let words = Array.init len (fun k -> text.(first_pos + k)) in
        decisions :=
          { d_length = len; d_words = words; d_occurrences = usable }
          :: !decisions;
        saved := !saved + Benefit.saving ~length:len ~repeats;
        occ_total := !occ_total + repeats
      end
      else Obs.Counter.incr "ltbo.decisions_rejected")
    candidates);
  Obs.Counter.add "ltbo.repeats_considered" !considered;
  Obs.Counter.add "ltbo.occurrences_replaced" !occ_total;
  Obs.Counter.add "ltbo.bytes_saved" (!saved * 4);
  let st = Suffix_tree.stats tree in
  ( List.rev !decisions,
    { s_candidate_methods = List.length group;
      s_sequence_elements = !n_elements;
      s_tree_nodes = st.Suffix_tree.nodes;
      s_repeats_considered = !considered;
      s_outlined_functions = List.length !decisions;
      s_occurrences_replaced = !occ_total;
      s_instructions_saved = !saved;
      s_memo_hits = 0 } )

(* ---- Detection memoization ---------------------------------------------

   [detect_uncached] is a pure function of (options, the token sequences of
   the group's methods): decisions are selected deterministically and
   expressed against method indices and offsets. That makes whole-group
   results safe to memoize content-addressed: the key folds in the cache
   salt, the build's memo scope, the length bounds and each member's
   canonical token digest ({!Seq_map.digest}), in group order. On an
   incremental rebuild where one method changed, every group that does not
   contain it keys identically and skips sequence mapping, tree
   construction and selection outright.

   The scope (see {!Pipeline.memo_scope}) names what else the results are
   relative to, so every scope can share the one [detect] namespace.

   [digest_of] is the fast path: digests computed at compile time (and
   stored with the cached artifact) for methods under the default
   eligibility policy. Hot methods (hot-function filtering changes their
   token run) always re-digest with their actual eligibility. *)

let detect_ns = "detect"

let group_key ~scope ~options ~digest_of (methods : Compiled_method.t array)
    (group : int list) : string =
  let digest_for mi =
    let cm = methods.(mi) in
    let hot = options.is_hot cm.Compiled_method.name in
    let provided =
      if hot then None
      else match digest_of with Some f -> f mi | None -> None
    in
    match provided with
    | Some d -> d
    | None ->
      let eligible off =
        (not hot) || Meta.in_slowpath cm.Compiled_method.meta off
      in
      Seq_map.method_digest ~eligible cm
  in
  Cache.key
    (Cache.salt :: detect_ns :: scope
     :: string_of_int options.min_length
     :: string_of_int options.max_length
     :: List.concat_map (fun mi -> [ string_of_int mi; digest_for mi ]) group)

let detect_result_to_json ((decisions, st) : decision list * stats) : Json.t =
  Json.Obj
    [ ( "decisions",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [ ("len", Json.Int d.d_length);
                   ( "words",
                     Json.List
                       (Array.to_list
                          (Array.map (fun w -> Json.Int w) d.d_words)) );
                   ( "occ",
                     Json.List
                       (List.map
                          (fun (mi, off) ->
                            Json.List [ Json.Int mi; Json.Int off ])
                          d.d_occurrences) ) ])
             decisions) );
      ( "stats",
        Json.List
          (List.map
             (fun i -> Json.Int i)
             [ st.s_candidate_methods; st.s_sequence_elements;
               st.s_tree_nodes; st.s_repeats_considered;
               st.s_outlined_functions; st.s_occurrences_replaced;
               st.s_instructions_saved ]) ) ]

let detect_result_of_json (j : Json.t) : (decision list * stats) option =
  let ( let* ) = Option.bind in
  let rec all_opt = function
    | [] -> Some []
    | None :: _ -> None
    | Some x :: rest ->
      let* rest = all_opt rest in
      Some (x :: rest)
  in
  let int_pair j =
    match Json.get_list j with
    | Some [ a; b ] -> (
      match (Json.get_int a, Json.get_int b) with
      | Some a, Some b -> Some (a, b)
      | _ -> None)
    | _ -> None
  in
  let decision j =
    let* len = Option.bind (Json.member "len" j) Json.get_int in
    let* words = Option.bind (Json.member "words" j) Json.get_list in
    let* words = all_opt (List.map Json.get_int words) in
    let* occ = Option.bind (Json.member "occ" j) Json.get_list in
    let* occ = all_opt (List.map int_pair occ) in
    Some
      { d_length = len; d_words = Array.of_list words; d_occurrences = occ }
  in
  let* ds = Option.bind (Json.member "decisions" j) Json.get_list in
  let* decisions = all_opt (List.map decision ds) in
  let* st = Option.bind (Json.member "stats" j) Json.get_list in
  let* st = all_opt (List.map Json.get_int st) in
  match st with
  | [ a; b; c; d; e; f; g ] ->
    Some
      ( decisions,
        { s_candidate_methods = a; s_sequence_elements = b; s_tree_nodes = c;
          s_repeats_considered = d; s_outlined_functions = e;
          s_occurrences_replaced = f; s_instructions_saved = g;
          s_memo_hits = 0 } )
  | _ -> None

let detect ?cache ?digest_of ?(scope = "") ~options
    (methods : Compiled_method.t array) (group : int list) :
    decision list * stats =
  Obs.span ~cat:"ltbo" "ltbo.detect"
    ~args:(fun () -> [ ("group_methods", Json.Int (List.length group)) ])
  @@ fun () ->
  match cache with
  | None -> detect_uncached ~options methods group
  | Some c -> (
    let key = group_key ~scope ~options ~digest_of methods group in
    match
      Option.bind (Cache.find_json c ~ns:detect_ns key) detect_result_of_json
    with
    | Some (ds, st) -> (ds, { st with s_memo_hits = 1 })
    | None ->
      let r = detect_uncached ~options methods group in
      Cache.add_json c ~ns:detect_ns key (detect_result_to_json r);
      r)

(* ---- Steps 3 & 4: rewriting, patching ---------------------------------- *)

(* The simple holder for per-method rewriting input. *)
type site = { st_off : int; st_len_words : int; st_sym : int }

let rewrite_method_sites (cm : Compiled_method.t) (sites : site list) :
    Compiled_method.t =
  if sites = [] then cm
  else begin
    let sites = List.sort (fun a b -> compare a.st_off b.st_off) sites in
    let code = cm.Compiled_method.code in
    let n_words = Bytes.length code / 4 in
    let old_size = n_words * 4 in
    (* Old-offset -> new-offset map, at word granularity, plus one entry for
       the end-of-method offset (branch targets may point there). Interior
       words of a replaced region map to the bl's offset (a branch target
       can only legally be the region start; anything else would have been
       prevented by the boundary separators). *)
    let remap = Array.make (n_words + 1) (-1) in
    let new_relocs = ref [] in
    let new_pos = ref 0 in
    (* The rewritten words go straight into the domain's scratch arena in
       walk order (they are emitted at strictly increasing offsets), then
       one copy out. The previous version consed every surviving word
       onto an int list and replayed it in reverse — two heap words of
       minor-gen garbage per instruction per rewritten method, on every
       build. *)
    let new_code =
      Arena.with_scratch @@ fun arena ->
      let rec walk w sites =
        if w >= n_words then ()
        else
          match sites with
          | { st_off; st_len_words; st_sym } :: rest when st_off = w * 4 ->
            (* Replace the occurrence with one bl. *)
            remap.(w) <- !new_pos;
            for k = 1 to st_len_words - 1 do
              remap.(w + k) <- !new_pos
            done;
            Arena.add_i32_le arena
              (Encode.encode (Isa.Bl { target = Isa.Sym st_sym }));
            new_relocs := (!new_pos, st_sym) :: !new_relocs;
            new_pos := !new_pos + 4;
            walk (w + st_len_words) rest
          | _ ->
            remap.(w) <- !new_pos;
            Arena.add_i32_le arena (Encode.word_of_bytes code (w * 4));
            new_pos := !new_pos + 4;
            walk (w + 1) sites
      in
      walk 0 sites;
      remap.(n_words) <- !new_pos;
      Arena.to_bytes arena
    in
    let remap_off off =
      if off land 3 <> 0 || off < 0 || off > old_size then
        invalid_arg (Printf.sprintf "Ltbo.remap: bad offset %d" off)
      else remap.(off / 4)
    in
    (* Step 4: patch every PC-relative instruction against the new layout
       (paper 3.3.4). The instruction itself is never inside a replaced
       region; its target may be a region start (see remap above). *)
    let meta = cm.Compiled_method.meta in
    let new_pc_rel =
      List.map
        (fun (off, tgt) ->
          let off' = remap_off off and tgt' = remap_off tgt in
          Patch.patch_bytes new_code ~off:off' ~disp:(tgt' - off');
          (off', tgt'))
        meta.Meta.pc_rel
    in
    Obs.Counter.add "ltbo.pc_rel_patched" (List.length new_pc_rel);
    Obs.Counter.add "ltbo.sites_rewritten" (List.length sites);
    let remap_range (r : Meta.range) =
      let s = remap_off r.Meta.r_start
      and e = remap_off (r.Meta.r_start + r.Meta.r_len) in
      { Meta.r_start = s; r_len = e - s }
    in
    let new_meta =
      { meta with
        Meta.pc_rel = new_pc_rel;
        embedded = List.map remap_range meta.Meta.embedded;
        slowpaths = List.map remap_range meta.Meta.slowpaths;
        terminators = List.map remap_off meta.Meta.terminators;
        calls =
          List.map remap_off meta.Meta.calls
          @ List.map (fun (off, _) -> off) !new_relocs
          |> List.sort_uniq compare }
    in
    (* Reposition stackmaps (paper 3.5) and verify consistency. *)
    let new_stackmap =
      Stackmap.remap cm.Compiled_method.stackmap ~remap_pc:remap_off
    in
    Obs.Counter.add "ltbo.stackmap_fixups" (List.length new_stackmap);
    (match Stackmap.validate new_stackmap ~code_size:!new_pos with
     | Ok () -> ()
     | Error e ->
       raise
         (Ltbo_error
            (Printf.sprintf "LTBO broke stackmaps of %s: %s"
               (Calibro_dex.Dex_ir.method_ref_to_string
                  cm.Compiled_method.name)
               e)));
    { cm with
      Compiled_method.code = new_code;
      relocs =
        List.map (fun (off, sym) -> (remap_off off, sym)) cm.Compiled_method.relocs
        @ List.rev !new_relocs;
      meta = new_meta;
      stackmap = new_stackmap }
  end

(* ---- Top level ---------------------------------------------------------- *)

type result = {
  methods : Compiled_method.t list;
  outlined : Calibro_oat.Linker.extra_function list;
  stats : stats;
}

(* Apply the detection results of one LTBO pass over [methods] (one result
   per suffix tree: one for the global tree, K under PlOpti). *)
let run_with ?(sym_base = outlined_sym_base)
    ~(detect_results : (decision list * stats) list)
    (methods : Compiled_method.t list) : result =
  let marr = Array.of_list methods in
  let all_decisions = List.concat_map fst detect_results in
  let stats =
    List.fold_left
      (fun acc (_, s) -> merge_stats acc s)
      empty_stats detect_results
  in
  (* Allocate symbols and outlined bodies. Identical bodies — which arise
     when several parallel suffix trees independently discover the same
     sequence (section 3.4.1's cross-tree blindness) — are deduplicated to
     a single outlined function at this point. *)
  let outlined = ref [] in
  let body_syms : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let next_sym = ref sym_base in
  let sites_per_method : (int, site list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let body =
        Array.to_list (Array.map (fun w -> Isa.Data (Int32.of_int w)) d.d_words)
        @ [ Isa.Br Isa.lr ]
      in
      (* Data here is just raw word passthrough: encode emits them verbatim. *)
      let code = Encode.to_bytes body in
      let key = Bytes.to_string code in
      let sym =
        match Hashtbl.find_opt body_syms key with
        | Some sym -> sym
        | None ->
          let sym = !next_sym in
          incr next_sym;
          Hashtbl.replace body_syms key sym;
          outlined := { Calibro_oat.Linker.xf_sym = sym; xf_code = code }
                      :: !outlined;
          sym
      in
      List.iter
        (fun (mi, off) ->
          let l =
            match Hashtbl.find_opt sites_per_method mi with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace sites_per_method mi l;
              l
          in
          l := { st_off = off; st_len_words = d.d_length; st_sym = sym } :: !l)
        d.d_occurrences)
    all_decisions;
  let methods' =
    Obs.span ~cat:"ltbo" "ltbo.rewrite" (fun () ->
        Array.to_list
          (Array.mapi
             (fun mi cm ->
               match Hashtbl.find_opt sites_per_method mi with
               | None -> cm
               | Some sites -> rewrite_method_sites cm !sites)
             marr))
  in
  let stats =
    { stats with s_outlined_functions = List.length !outlined }
  in
  { methods = methods'; outlined = List.rev !outlined; stats }

let candidates (methods : Compiled_method.t list) =
  List.concat
    (List.mapi
       (fun i (cm : Compiled_method.t) ->
         if Meta.outlinable cm.meta then [ i ] else [])
       methods)
