(* The store-wide shared outline dictionary (prelink-style sharing).

   Per-app LTBO deduplicates repeated sequences *within* one app; across
   a store, the same outlined bodies recur app after app — every app pays
   for its own copy. This pass mines outlined bodies across a set of app
   builds, keeps the ones at least two apps carry, ranks them by
   fleet-wide bytes saved, and concatenates the winners into one image
   every device maps once at {!Calibro_codegen.Abi.dict_base}. The
   linker then binds a matching body to its shared slot instead of
   placing it locally (see {!Calibro_oat.Linker.dict}), exactly like a
   prelinked system library.

   The image digest is {!Calibro_chash.Chash} (MD5) hex: it names the
   dictionary in OAT containers and on the wire. *)

open Calibro_core
module Oat_file = Calibro_oat.Oat_file
module Linker = Calibro_oat.Linker
module Abi = Calibro_codegen.Abi
module Obs = Calibro_obs.Obs
module Chash = Calibro_chash.Chash

type entry = {
  e_offset : int;  (** byte offset of the body in the image *)
  e_size : int;
  e_apps : int;
      (** distinct apps carrying this body at mining time; 0 after
          {!load} (the persisted form does not keep provenance) *)
}

type t = {
  dt_image : bytes;
  dt_digest : string;  (** MD5 hex of [dt_image] *)
  dt_entries : entry list;  (** in image order *)
  dt_slots : (string, int) Hashtbl.t;  (** body bytes -> image offset *)
}

let digest t = t.dt_digest
let image t = t.dt_image
let size t = Bytes.length t.dt_image
let entries t = t.dt_entries
let n_bodies t = List.length t.dt_entries

let name_prefix = "calibro-dict:"

let image_digest image = Chash.to_hex (Chash.bytes image)

(* Fleet-wide bytes saved by sharing [body] across [apps] copies: the
   store ships one body instead of [apps], minus nothing locally (the
   bound [bl] sites existed already). The dictionary itself pays [size]
   once, so the net is (apps - 1) * size. *)
let saved ~apps ~size = (apps - 1) * size

let of_entry_list ranked =
  let b = Buffer.create 4096 in
  let slots = Hashtbl.create (List.length ranked * 2) in
  let entries =
    List.map
      (fun (body, apps) ->
        let off = Buffer.length b in
        Buffer.add_string b body;
        Hashtbl.replace slots body off;
        { e_offset = off; e_size = String.length body; e_apps = apps })
      ranked
  in
  let image = Buffer.to_bytes b in
  { dt_image = image;
    dt_digest = image_digest image;
    dt_entries = entries;
    dt_slots = slots }

let bodies_of_oat (oat : Oat_file.t) =
  List.map
    (fun (ol : Oat_file.outlined_entry) ->
      Bytes.sub_string oat.Oat_file.text ol.Oat_file.ol_offset
        ol.Oat_file.ol_size)
    oat.Oat_file.outlined

let of_oats (oats : Oat_file.t list) : t =
  (* Count, per distinct body, how many *apps* carry it (per-app LTBO
     already deduplicates within one app, but count defensively). *)
  let app_count : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun oat ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun body ->
          if not (Hashtbl.mem seen body) then begin
            Hashtbl.add seen body ();
            Hashtbl.replace app_count body
              (1 + Option.value ~default:0 (Hashtbl.find_opt app_count body))
          end)
        (bodies_of_oat oat))
    oats;
  let winners =
    Hashtbl.fold
      (fun body apps acc -> if apps >= 2 then (body, apps) :: acc else acc)
      app_count []
    (* Rank by fleet-wide bytes saved, best first; ties break on the body
       bytes so the image is deterministic across hosts and runs. *)
    |> List.sort (fun (b1, a1) (b2, a2) ->
           let s1 = saved ~apps:a1 ~size:(String.length b1)
           and s2 = saved ~apps:a2 ~size:(String.length b2) in
           match compare s2 s1 with 0 -> compare b1 b2 | c -> c)
  in
  let t = of_entry_list winners in
  Obs.Counter.add "dict.bodies" (n_bodies t);
  Obs.Counter.add "dict.image_bytes" (size t);
  t

let mine ?cache ?(config = Config.cto_ltbo_pl ~k:8 ())
    (apks : Calibro_dex.Dex_ir.apk list) : t =
  of_oats
    (List.map
       (fun apk -> (Pipeline.build ~cache ~config apk).Pipeline.b_oat)
       apks)

let linker_dict t =
  { Linker.dct_digest = t.dt_digest;
    dct_base = Abi.dict_base;
    dct_slots = t.dt_slots }

let vm_image t =
  { Calibro_vm.Interp.di_digest = t.dt_digest;
    di_image = t.dt_image;
    di_entries = List.map (fun e -> (e.e_offset, e.e_size)) t.dt_entries }

(* ---- Persistence ---------------------------------------------------------

   The artifact is itself an OAT container: the image as text, one
   outlined entry per body, and a self-naming [apk_name] binding the
   content digest into the (digest-checked) method table. Corruption
   anywhere is a typed error on load:
   - truncation        -> Oat_file.of_bytes bounds check;
   - method-table flip -> Marshal/decode failure in of_bytes;
   - image flip        -> the recomputed digest no longer matches the
                          name (of_bytes cannot see it; we can). *)

let to_oat t : Oat_file.t =
  { Oat_file.apk_name = name_prefix ^ t.dt_digest;
    text = Bytes.copy t.dt_image;
    methods = [];
    thunks = [];
    outlined =
      List.map
        (fun e -> { Oat_file.ol_offset = e.e_offset; ol_size = e.e_size })
        t.dt_entries;
    dict_digest = None;
    shelve = None }

let save t path = Oat_file.save (to_oat t) path

let of_oat_container (oat : Oat_file.t) : (t, string) result =
  let n = String.length name_prefix in
  if
    String.length oat.Oat_file.apk_name < n
    || String.sub oat.Oat_file.apk_name 0 n <> name_prefix
  then Error "not a dictionary container"
  else begin
    let named = String.sub oat.Oat_file.apk_name n
        (String.length oat.Oat_file.apk_name - n)
    in
    let actual = image_digest oat.Oat_file.text in
    if named <> actual then
      Error
        (Printf.sprintf "dictionary image digest mismatch: named %s, image %s"
           named actual)
    else begin
      (* The entries must tile the image exactly — a damaged table that
         survived the marshal round-trip still may not describe bodies
         that overlap or fall outside the image. *)
      let pos = ref 0 and ok = ref true in
      List.iter
        (fun (ol : Oat_file.outlined_entry) ->
          if ol.Oat_file.ol_offset <> !pos || ol.Oat_file.ol_size <= 0 then
            ok := false
          else pos := !pos + ol.Oat_file.ol_size)
        oat.Oat_file.outlined;
      if (not !ok) || !pos <> Bytes.length oat.Oat_file.text then
        Error "dictionary entry table does not tile the image"
      else begin
        let slots = Hashtbl.create 64 in
        let entries =
          List.map
            (fun (ol : Oat_file.outlined_entry) ->
              let body =
                Bytes.sub_string oat.Oat_file.text ol.Oat_file.ol_offset
                  ol.Oat_file.ol_size
              in
              Hashtbl.replace slots body ol.Oat_file.ol_offset;
              { e_offset = ol.Oat_file.ol_offset;
                e_size = ol.Oat_file.ol_size;
                e_apps = 0 })
            oat.Oat_file.outlined
        in
        Ok
          { dt_image = Bytes.copy oat.Oat_file.text;
            dt_digest = actual;
            dt_entries = entries;
            dt_slots = slots }
      end
    end
  end

let load path : (t, string) result =
  match Oat_file.load path with
  | exception Sys_error m -> Error m
  | Error e -> Error e
  | Ok oat -> of_oat_container oat
