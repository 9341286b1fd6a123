(* The OAT container: the linked output of DEX2OAT.

   Real OAT files are specialized ELF files; ours keeps the same moral
   structure — a header, a method table (the "oatmethod" headers), auxiliary
   data (stackmaps, LTBO metadata) and the text segment holding all
   compiled code, CTO thunks and LTBO outlined functions. The text segment
   is loaded at {!Calibro_codegen.Abi.text_base}. *)

open Calibro_dex.Dex_ir
open Calibro_codegen

type method_entry = {
  me_name : method_ref;
  me_slot : int;
  me_offset : int;  (** byte offset of the method's code in [text] *)
  me_size : int;
  me_meta : Meta.t;       (** offsets are method-relative *)
  me_stackmap : Stackmap.t;
  me_num_params : int;
  me_is_entry : bool;
}

type thunk_entry = { th : Abi.thunk; th_offset : int; th_size : int }

type outlined_entry = { ol_offset : int; ol_size : int }

type shelf_entry = {
  sh_slot : int;    (** ArtMethod slot of the shelved method *)
  sh_offset : int;  (** byte offset of the parked body inside the image *)
  sh_size : int;
}

type shelf = {
  shf_digest : string;
      (** the shelve *policy* digest: coverage threshold + warm set.
          Recorded so tooling can tell which plan produced the stubs. *)
  shf_image : bytes;
      (** the relocated original bodies of shelved methods, mapped by the
          VM at {!Calibro_codegen.Abi.shelf_base} *)
  shf_entries : shelf_entry list;  (** in slot order, tiling the image *)
}

type t = {
  apk_name : string;
  text : bytes;  (** fully relocated code *)
  methods : method_entry list;  (** in slot order *)
  thunks : thunk_entry list;
  outlined : outlined_entry list;  (** LTBO outlined functions *)
  dict_digest : string option;
      (** When set, [text] contains [bl] sites relocated against the
          store-wide shared dictionary with this digest, mapped at
          {!Calibro_codegen.Abi.dict_base}; executing this OAT requires
          that exact dictionary image. [None] = self-contained. *)
  shelve : shelf option;
      (** When set, profile-cold methods in [text] are fixed-size shelf
          stubs; their original bodies live in the shelf image. [None] =
          nothing shelved. *)
}

let shelved_slots t =
  match t.shelve with
  | None -> []
  | Some s -> List.map (fun e -> e.sh_slot) s.shf_entries

let text_size t = Bytes.length t.text

let find_method t name =
  List.find_opt (fun m -> m.me_name = name) t.methods

let method_by_slot t slot =
  List.find_opt (fun m -> m.me_slot = slot) t.methods

let entry_methods t = List.filter (fun m -> m.me_is_entry) t.methods

(* ---- Region table -------------------------------------------------------

   A uniform view of the text-segment layout — every method, CTO thunk and
   LTBO outlined function with its byte extent. The correctness tooling
   (Calibro_check) walks this to check that branch targets land on region
   starts, that regions tile the segment, and that outlined bodies are
   well-formed. *)

type region_kind =
  | Region_method of method_entry
  | Region_thunk of thunk_entry
  | Region_outlined of outlined_entry

type region = { rg_kind : region_kind; rg_offset : int; rg_size : int }

let region_name = function
  | { rg_kind = Region_method me; _ } -> method_ref_to_string me.me_name
  | { rg_kind = Region_thunk th; _ } ->
    Printf.sprintf "thunk@%#x" th.th_offset
  | { rg_kind = Region_outlined ol; _ } ->
    Printf.sprintf "outlined@%#x" ol.ol_offset

let regions t =
  List.map
    (fun me ->
      { rg_kind = Region_method me; rg_offset = me.me_offset;
        rg_size = me.me_size })
    t.methods
  @ List.map
      (fun th ->
        { rg_kind = Region_thunk th; rg_offset = th.th_offset;
          rg_size = th.th_size })
      t.thunks
  @ List.map
      (fun ol ->
        { rg_kind = Region_outlined ol; rg_offset = ol.ol_offset;
          rg_size = ol.ol_size })
      t.outlined
  |> List.sort (fun a b -> compare a.rg_offset b.rg_offset)

(* The set of offsets where a region starts: the only legal [bl] landing
   pads after linking. *)
let region_starts t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl r.rg_offset r) (regions t);
  tbl

(* Size of the non-code ("data") portion the runtime keeps resident:
   method headers and stackmaps (the auxiliary information of paper section
   3.5), plus a fixed header page. Used by the memory-usage experiment
   (Table 5), where OAT memory = data + resident code pages; outlining does
   not shrink this part, which is why memory reductions (Table 5) are
   smaller than text reductions (Table 4). *)
let method_header_bytes = 32
let stackmap_entry_bytes = 12

let data_size t =
  4096
  + List.fold_left
      (fun acc m ->
        acc + method_header_bytes
        + (stackmap_entry_bytes * List.length m.me_stackmap))
      0 t.methods
  + (16 * List.length t.thunks)
  (* outlined functions carry no headers or stackmaps: they contain no
     safepoints (calls are never outlined), so the runtime never needs to
     describe them *)

(* ---- On-disk serialization -------------------------------------------- *)

exception Oat_error of string
(* The clean failure for malformed OAT input: [of_bytes] converts it to
   [Error], [Oatdump] lets it escape for the CLI to catch. Nothing in this
   library surfaces [Invalid_argument] for a bad input file. *)

let magic = "CALIBOAT"
let version = 4 (* v4: shelf image + entries + shelve policy digest *)

(* The one serializer: every region's size is known up front, so the
   container is written into one exact-size [bytes]. *)
let to_bytes (t : t) : bytes =
  (* No_sharing: the default encoding writes back-references for
     physically shared blocks, so two structurally equal method tables
     can serialize to different bytes (e.g. a cache-warm build decodes
     its entries fresh while a cold build shares method_refs with the
     IR). The table is acyclic, so a purely structural encoding is safe
     and makes saved OAT files deterministic. *)
  let shelve_meta =
    Option.map (fun s -> (s.shf_digest, s.shf_entries)) t.shelve
  in
  let payload =
    Marshal.to_string
      (t.apk_name, t.dict_digest, shelve_meta, t.methods, t.thunks, t.outlined)
      [ Marshal.No_sharing ]
  in
  (* The shelf image rides after the text segment; a build with nothing
     shelved writes a zero length and stays byte-stable. *)
  let shelf =
    match t.shelve with None -> Bytes.empty | Some s -> s.shf_image
  in
  let out =
    Bytes.create
      (String.length magic + 16 + String.length payload + Bytes.length t.text
     + Bytes.length shelf)
  in
  let pos = ref 0 in
  let add_i32 v =
    Bytes.set_int32_le out !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let add_bytes b =
    Bytes.blit b 0 out !pos (Bytes.length b);
    pos := !pos + Bytes.length b
  in
  add_bytes (Bytes.unsafe_of_string magic);
  add_i32 version;
  add_i32 (String.length payload);
  add_bytes (Bytes.unsafe_of_string payload);
  add_i32 (Bytes.length t.text);
  add_bytes t.text;
  add_i32 (Bytes.length shelf);
  add_bytes shelf;
  out

let of_bytes (buf : bytes) : (t, string) result =
  (* Every region is bounds-checked before it is read, so a file truncated
     at any offset — before the magic, mid-header, mid-method-table —
     reports where it ran out instead of escaping as [Invalid_argument]
     from a blind [Bytes.sub]. *)
  let len = Bytes.length buf in
  let truncated what pos need =
    raise
      (Oat_error
         (Printf.sprintf
            "truncated OAT: %s needs %d bytes at offset %d, file is %d bytes"
            what need pos len))
  in
  let need what pos n =
    if n < 0 then
      raise (Oat_error (Printf.sprintf "corrupt OAT: negative %s length" what));
    if pos + n > len then truncated what pos n
  in
  try
    need "magic" 0 (String.length magic);
    let m = Bytes.sub_string buf 0 (String.length magic) in
    if m <> magic then Error "bad magic"
    else begin
      let pos = ref (String.length magic) in
      let read_i32 what =
        need what !pos 4;
        let v = Int32.to_int (Bytes.get_int32_le buf !pos) in
        pos := !pos + 4;
        v
      in
      let v = read_i32 "version" in
      if v <> version then Error (Printf.sprintf "bad version %d" v)
      else begin
        let payload_len = read_i32 "method-table length" in
        need "method table" !pos payload_len;
        let payload = Bytes.sub_string buf !pos payload_len in
        pos := !pos + payload_len;
        let apk_name, dict_digest, shelve_meta, methods, thunks, outlined =
          (Marshal.from_string payload 0
            : string * string option * (string * shelf_entry list) option
              * method_entry list * thunk_entry list * outlined_entry list)
        in
        let text_len = read_i32 "text length" in
        need "text segment" !pos text_len;
        let text = Bytes.sub buf !pos text_len in
        pos := !pos + text_len;
        let shelf_len = read_i32 "shelf length" in
        need "shelf image" !pos shelf_len;
        let shelf_image = Bytes.sub buf !pos shelf_len in
        let shelve =
          Option.map
            (fun (digest, entries) ->
              { shf_digest = digest; shf_image = shelf_image;
                shf_entries = entries })
            shelve_meta
        in
        Ok { apk_name; text; methods; thunks; outlined; dict_digest; shelve }
      end
    end
  with
  | Oat_error m -> Error m
  | Failure m ->
    (* [Marshal.from_string] on a damaged (but length-complete) payload *)
    Error ("corrupt OAT method table: " ^ m)
  | e -> Error (Printexc.to_string e)

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      of_bytes buf)
