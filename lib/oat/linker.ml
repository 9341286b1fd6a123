(* The linker: lays out compiled methods (plus CTO thunks and LTBO outlined
   functions) into one text segment, binds symbols, and relocates calls.

   Per the paper (section 3.2), link-time outlining runs *before* this final
   binding: "the target labels of call instructions ... have not been bound
   to addresses or offsets at this time. Instead, the later linking phase
   ... will bind function labels to addresses, and relocate the call
   instructions". So the input here may already contain [bl] sites whose
   symbols point at outlined functions. *)

open Calibro_aarch64
open Calibro_codegen
module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json

type extra_function = {
  xf_sym : int;       (** symbol id call sites reference *)
  xf_code : bytes;    (** position-independent body *)
}

(* The prelink contract for store-wide sharing: a dictionary is an image
   of outlined bodies every app maps at the same absolute address
   ([dct_base], normally [Abi.dict_base]). An extra function whose body
   bytes appear in [dct_slots] is NOT placed in the local text segment;
   its symbol binds to the dictionary slot instead, and the ordinary
   [target - at] relocation arithmetic reaches it because symbol values
   here are text-relative ([dct_base - Abi.text_base + slot_offset] is
   just a target beyond the end of the local segment). *)
type dict = {
  dct_digest : string;  (** content digest of the dictionary image *)
  dct_base : int;       (** absolute load address of the image *)
  dct_slots : (string, int) Hashtbl.t;
      (** body bytes -> byte offset of that body inside the image *)
}

(* The shelving contract: a profile-cold method's text slot holds only a
   fixed-size stub; its original (pre-LTBO) body is parked in a separate
   shelf image mapped at [Abi.shelf_base]. The body's [bl] relocations
   (CTO thunk calls — shelved bodies are pre-outlining, so they never
   reference outline symbols) are patched against the text symbols with
   cross-segment displacements. *)
type shelf_body = {
  sb_name : Calibro_dex.Dex_ir.method_ref;
  sb_slot : int;
  sb_code : bytes;                (** the original compiled body *)
  sb_relocs : (int * int) list;   (** (byte offset of a bl, symbol id) *)
}

type shelve_input = {
  shv_digest : string;            (** shelve policy digest for the header *)
  shv_bodies : shelf_body list;
}

exception Link_error of string

(* Thunk bodies are fixed specifications ([Abi.thunk_body]); under an
   incremental (cached) pipeline the linker runs on every warm rebuild, so
   re-encoding the same few bodies each time is pure waste. Encode each
   thunk once per process; [Bytes.blit] below never mutates the code, only
   copies out of it. *)
let thunk_code : (Abi.thunk, bytes) Hashtbl.t = Hashtbl.create 8
let thunk_code_lock = Mutex.create ()

let encode_thunk th =
  Mutex.lock thunk_code_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock thunk_code_lock)
    (fun () ->
      match Hashtbl.find_opt thunk_code th with
      | Some code -> code
      | None ->
        let code = Encode.to_bytes (Abi.thunk_body th) in
        Hashtbl.replace thunk_code th code;
        code)

let link ~apk_name ?(thunks = []) ?(extra = []) ?dict ?shelve
    (methods : Compiled_method.t list) : Oat_file.t =
  Obs.span ~cat:"link" "link.run"
    ~args:(fun () -> [ ("apk", Json.Str apk_name) ])
  @@ fun () ->
  let methods =
    List.sort (fun a b -> compare a.Compiled_method.slot b.Compiled_method.slot) methods
  in
  Obs.Counter.add "linker.methods_placed" (List.length methods);
  Obs.Counter.add "linker.thunks_placed" (List.length thunks);
  Obs.Counter.add "linker.outlined_placed" (List.length extra);
  (* ---- Layout: thunks, then methods, then extra (outlined) functions. *)
  let symtab : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* Every definition must bind a fresh symbol: the namespaces are disjoint
     by construction (method slots below [Abi.thunk_sym_base], thunks and
     outlined functions above it), so a collision means the caller produced
     two definitions for one symbol and a silent [Hashtbl.replace] would
     mislink every call site of the first. *)
  let define sym off =
    if Hashtbl.mem symtab sym then
      raise (Link_error (Printf.sprintf "duplicate symbol %d" sym));
    Hashtbl.replace symtab sym off
  in
  let pos = ref 0 in
  let thunk_entries =
    List.map
      (fun th ->
        let code = encode_thunk th in
        let off = !pos in
        define (Abi.thunk_sym th) off;
        pos := !pos + Bytes.length code;
        (th, off, code))
      thunks
  in
  let method_entries =
    List.map
      (fun (m : Compiled_method.t) ->
        let off = !pos in
        define m.slot off;
        pos := !pos + Bytes.length m.code;
        (m, off))
      methods
  in
  (* Extra (outlined) functions: with a dictionary, a body the store
     already carries binds to its shared slot and costs zero local bytes;
     everything else is placed locally as before. *)
  let dict_bound = ref 0 in
  let extra_entries =
    List.filter_map
      (fun xf ->
        let local () =
          let off = !pos in
          define xf.xf_sym off;
          pos := !pos + Bytes.length xf.xf_code;
          Some (xf, off)
        in
        match dict with
        | None -> local ()
        | Some d -> (
          match Hashtbl.find_opt d.dct_slots (Bytes.to_string xf.xf_code) with
          | None -> local ()
          | Some slot_off ->
            define xf.xf_sym (d.dct_base - Abi.text_base + slot_off);
            incr dict_bound;
            None))
      extra
  in
  Obs.Counter.add "linker.dict_bound" !dict_bound;
  let resolve sym =
    match Hashtbl.find_opt symtab sym with
    | Some off -> off
    | None -> raise (Link_error (Printf.sprintf "undefined symbol %d" sym))
  in
  let relocated = ref 0 in
  (* The entries were assigned contiguous offsets above, so the final
     text size is [!pos] and each body blits straight to its offset. *)
  let text = Bytes.create !pos in
  Obs.span ~cat:"link" "link.layout" (fun () ->
      List.iter
        (fun (_, off, code) -> Bytes.blit code 0 text off (Bytes.length code))
        thunk_entries;
      List.iter
        (fun ((m : Compiled_method.t), off) ->
          Bytes.blit m.code 0 text off (Bytes.length m.code))
        method_entries;
      List.iter
        (fun (xf, off) ->
          Bytes.blit xf.xf_code 0 text off (Bytes.length xf.xf_code))
        extra_entries);
  (* ---- Relocate bl sites. *)
  Obs.span ~cat:"link" "link.relocate"
    ~args:(fun () -> [ ("relocations", Json.Int !relocated) ])
    (fun () ->
      List.iter
        (fun ((m : Compiled_method.t), off) ->
          List.iter
            (fun (site, sym) ->
              incr relocated;
              Patch.relocate_bl text ~off:(off + site) ~target:(resolve sym))
            m.relocs)
        method_entries);
  Obs.Counter.add "linker.relocations_patched" !relocated;
  Obs.Gauge.set "linker.last_text_size" (float_of_int (Bytes.length text));
  (* ---- Shelf image: parked bodies in slot order, each [bl] patched with
     the cross-segment displacement to its text-resident thunk. An empty
     plan records nothing, keeping the container byte-identical to an
     unshelved link. *)
  let shelf =
    match shelve with
    | None | Some { shv_bodies = []; _ } -> None
    | Some shv ->
      let bodies =
        List.sort (fun a b -> compare a.sb_slot b.sb_slot) shv.shv_bodies
      in
      let shelf_pos = ref 0 in
      let placed =
        List.map
          (fun sb ->
            let off = !shelf_pos in
            shelf_pos := !shelf_pos + Bytes.length sb.sb_code;
            (sb, off))
          bodies
      in
      let image = Bytes.create !shelf_pos in
      List.iter
        (fun (sb, off) ->
          Bytes.blit sb.sb_code 0 image off (Bytes.length sb.sb_code);
          List.iter
            (fun (site, sym) ->
              let target_abs = Abi.text_base + resolve sym in
              let at = off + site in
              incr relocated;
              Patch.patch_bytes image ~off:at
                ~disp:(target_abs - (Abi.shelf_base + at)))
            sb.sb_relocs)
        placed;
      Obs.Counter.add "linker.shelved_placed" (List.length bodies);
      Some
        { Oat_file.shf_digest = shv.shv_digest;
          shf_image = image;
          shf_entries =
            List.map
              (fun (sb, off) ->
                { Oat_file.sh_slot = sb.sb_slot; sh_offset = off;
                  sh_size = Bytes.length sb.sb_code })
              placed }
  in
  { Oat_file.apk_name;
    text;
    methods =
      List.map
        (fun ((m : Compiled_method.t), off) ->
          { Oat_file.me_name = m.name;
            me_slot = m.slot;
            me_offset = off;
            me_size = Bytes.length m.code;
            me_meta = m.meta;
            me_stackmap = m.stackmap;
            me_num_params = m.num_params;
            me_is_entry = m.is_entry })
        method_entries;
    thunks =
      List.map
        (fun (th, off, code) ->
          { Oat_file.th; th_offset = off; th_size = Bytes.length code })
        thunk_entries;
    outlined =
      List.map
        (fun (xf, off) ->
          { Oat_file.ol_offset = off; ol_size = Bytes.length xf.xf_code })
        extra_entries;
    (* Only a text segment that actually references the dictionary pins
       its digest: a build where nothing bound (or an empty dictionary)
       stays self-contained, byte-for-byte identical to a no-dict link. *)
    dict_digest =
      (if !dict_bound > 0 then Option.map (fun d -> d.dct_digest) dict
       else None);
    shelve = shelf }
