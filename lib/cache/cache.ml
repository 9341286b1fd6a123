(* Content-addressed compilation cache. See the interface for the contract.

   Layout on disk (when [dir] is set): one file per entry,

     <dir>/<ns>/<key>.json
       { "schema": 1, "ns": .., "key": ..,
         "payload_digest": <md5 hex of the payload's compact serialization>,
         "payload": .. }

   The digest makes corruption (truncation, bit flips, partial writes that
   survived a crash) detectable without trusting the payload shape; writes
   go through a temp file plus [Sys.rename] so readers only ever see whole
   files. A failed load of any kind is a miss, never an error. *)

open Calibro_codegen
module Dex = Calibro_dex.Dex_ir
module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json
module Chash = Calibro_chash.Chash

(* The version is part of every key's salt, so entries written under
   another version are simply unreachable — no mixed-digest reads, no
   format sniffing. v2 entries were keyed by a since-deleted fast hash or
   by MD5: the MD5-keyed ones (written under the old MD5 backend) stay
   valid, since keys are still MD5, while the fast-keyed ones can never
   be looked up again. *)
let version = 2
let salt = Printf.sprintf "calibro-cache-v%d" version
let schema = 1
let method_ns = "method"

let key parts =
  let st = Chash.init () in
  List.iter
    (fun p ->
      (* length-prefixed so part boundaries can't alias *)
      Chash.feed_int st (String.length p);
      Chash.feed_string st p)
    parts;
  Chash.to_hex (Chash.finalize st)

let counter ns what = Obs.Counter.incr (Printf.sprintf "cache.%s.%s" ns what)

(* ---- Store ------------------------------------------------------------- *)

type method_entry = {
  ce_method : Compiled_method.t;
  ce_token_digest : string;
}

type 'v tier = { table : (string, 'v) Hashtbl.t; fifo : string Queue.t }

let new_tier () = { table = Hashtbl.create 256; fifo = Queue.create () }

type t = {
  dir : string option;
  max_entries : int;
  lock : Mutex.t;
  methods : method_entry tier;
  json : Json.t tier;  (* keys are "<ns>:<key>" *)
  bodies : (Dex.meth * int) tier;  (* memory only *)
}

(* Orphan "*.json.tmp.<pid>.<domain>" files are the residue of a writer
   that died between [open_out_bin] and [Sys.rename] (kill -9, power
   loss — the in-process failure path unlinks its own tmp). Nothing ever
   reads them and their writers are gone, so sweep them when the store
   opens; a pid/domain suffix never collides with a live writer because
   live writers belong to *this* process, which has not written yet. *)
let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let sweep_tmp root =
  match Sys.readdir root with
  | exception Sys_error _ -> ()
  | namespaces ->
    Array.iter
      (fun ns ->
        let d = Filename.concat root ns in
        match Sys.readdir d with
        | exception Sys_error _ -> ()
        | files ->
          Array.iter
            (fun f ->
              if has_substring ~sub:".json.tmp." f then
                match Sys.remove (Filename.concat d f) with
                | () -> counter ns "tmp_swept"
                | exception Sys_error _ -> ())
            files)
      namespaces

let create ?dir ?(max_entries = 65536) () =
  Option.iter sweep_tmp dir;
  { dir;
    max_entries = max 1 max_entries;
    lock = Mutex.create ();
    methods = new_tier ();
    json = new_tier ();
    bodies = new_tier () }

let dir t = t.dir

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tier_find t tier k = with_lock t (fun () -> Hashtbl.find_opt tier.table k)

let tier_put t ~ns tier k v =
  with_lock t (fun () ->
      if not (Hashtbl.mem tier.table k) then begin
        Queue.push k tier.fifo;
        while Hashtbl.length tier.table >= t.max_entries do
          Hashtbl.remove tier.table (Queue.pop tier.fifo);
          counter ns "evictions"
        done
      end;
      Hashtbl.replace tier.table k v)

let mem_entries t =
  with_lock t (fun () ->
      Hashtbl.length t.methods.table + Hashtbl.length t.json.table
      + Hashtbl.length t.bodies.table)

(* ---- Compiled-method codec --------------------------------------------- *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  let digit v =
    Char.chr (if v < 10 then Char.code '0' + v else Char.code 'a' + v - 10)
  in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) (digit (c lsr 4));
    Bytes.set out ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then fail "odd hex length %d" n;
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | c -> fail "bad hex digit %C" c
  in
  Bytes.init (n / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let want_int what j =
  match Json.get_int j with Some i -> i | None -> fail "%s: expected int" what

let want_str what j =
  match Json.get_str j with
  | Some s -> s
  | None -> fail "%s: expected string" what

let want_list what j =
  match Json.get_list j with
  | Some l -> l
  | None -> fail "%s: expected list" what

let want_bool what j =
  match j with Json.Bool b -> b | _ -> fail "%s: expected bool" what

let field what name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "%s: missing field %S" what name

let int_pair_to_json (a, b) = Json.List [ Json.Int a; Json.Int b ]

let int_pair_of_json what j =
  match want_list what j with
  | [ a; b ] -> (want_int what a, want_int what b)
  | _ -> fail "%s: expected pair" what

let range_to_json (r : Meta.range) = int_pair_to_json (r.Meta.r_start, r.Meta.r_len)

let range_of_json what j =
  let r_start, r_len = int_pair_of_json what j in
  { Meta.r_start; r_len }

let meta_to_json (m : Meta.t) =
  Json.Obj
    [ ("embedded", Json.List (List.map range_to_json m.Meta.embedded));
      ("pc_rel", Json.List (List.map int_pair_to_json m.Meta.pc_rel));
      ("terminators", Json.List (List.map (fun i -> Json.Int i) m.Meta.terminators));
      ("calls", Json.List (List.map (fun i -> Json.Int i) m.Meta.calls));
      ("slowpaths", Json.List (List.map range_to_json m.Meta.slowpaths));
      ("has_indirect_jump", Json.Bool m.Meta.has_indirect_jump);
      ("is_native", Json.Bool m.Meta.is_native) ]

let meta_of_json j =
  let f name = field "meta" name j in
  { Meta.embedded = List.map (range_of_json "meta.embedded") (want_list "meta.embedded" (f "embedded"));
    pc_rel = List.map (int_pair_of_json "meta.pc_rel") (want_list "meta.pc_rel" (f "pc_rel"));
    terminators = List.map (want_int "meta.terminators") (want_list "meta.terminators" (f "terminators"));
    calls = List.map (want_int "meta.calls") (want_list "meta.calls" (f "calls"));
    slowpaths = List.map (range_of_json "meta.slowpaths") (want_list "meta.slowpaths" (f "slowpaths"));
    has_indirect_jump = want_bool "meta.has_indirect_jump" (f "has_indirect_jump");
    is_native = want_bool "meta.is_native" (f "is_native") }

let stackmap_entry_to_json (e : Stackmap.entry) =
  Json.List
    [ Json.Int e.Stackmap.native_pc; Json.Int e.Stackmap.dex_pc;
      Json.Int e.Stackmap.live_vregs ]

let stackmap_entry_of_json j =
  match want_list "stackmap" j with
  | [ a; b; c ] ->
    { Stackmap.native_pc = want_int "stackmap.native_pc" a;
      dex_pc = want_int "stackmap.dex_pc" b;
      live_vregs = want_int "stackmap.live_vregs" c }
  | _ -> fail "stackmap: expected triple"

let method_entry_to_json { ce_method = m; ce_token_digest } =
  Json.Obj
    [ ("class", Json.Str m.Compiled_method.name.Dex.class_name);
      ("method", Json.Str m.Compiled_method.name.Dex.method_name);
      ("slot", Json.Int m.Compiled_method.slot);
      ("code", Json.Str (hex_of_bytes m.Compiled_method.code));
      ("relocs", Json.List (List.map int_pair_to_json m.Compiled_method.relocs));
      ("meta", meta_to_json m.Compiled_method.meta);
      ( "stackmap",
        Json.List (List.map stackmap_entry_to_json m.Compiled_method.stackmap) );
      ("num_params", Json.Int m.Compiled_method.num_params);
      ("is_entry", Json.Bool m.Compiled_method.is_entry);
      ( "cto_hits",
        Json.List
          (List.map
             (fun (k, v) -> Json.List [ Json.Str k; Json.Int v ])
             m.Compiled_method.cto_hits) );
      ("token_digest", Json.Str ce_token_digest) ]

let method_entry_of_json j =
  try
    let f name = field "method" name j in
    let cto_hit j =
      match want_list "cto_hits" j with
      | [ k; v ] -> (want_str "cto_hits.key" k, want_int "cto_hits.count" v)
      | _ -> fail "cto_hits: expected pair"
    in
    Ok
      { ce_method =
          { Compiled_method.name =
              { Dex.class_name = want_str "class" (f "class");
                method_name = want_str "method" (f "method") };
            slot = want_int "slot" (f "slot");
            code = bytes_of_hex (want_str "code" (f "code"));
            relocs = List.map (int_pair_of_json "relocs") (want_list "relocs" (f "relocs"));
            meta = meta_of_json (f "meta");
            stackmap =
              List.map stackmap_entry_of_json (want_list "stackmap" (f "stackmap"));
            num_params = want_int "num_params" (f "num_params");
            is_entry = want_bool "is_entry" (f "is_entry");
            cto_hits = List.map cto_hit (want_list "cto_hits" (f "cto_hits")) };
        ce_token_digest = want_str "token_digest" (f "token_digest") }
  with Decode why -> Error why

(* ---- Disk tier --------------------------------------------------------- *)

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> () (* concurrent creator *)
  end

let check_ns ns =
  if ns = "" || String.exists (fun c -> c = '/' || c = '.') ns then
    invalid_arg (Printf.sprintf "Cache: bad namespace %S" ns)

let disk_path t ~ns k =
  match t.dir with
  | None -> None
  | Some root -> Some (Filename.concat (Filename.concat root ns) (k ^ ".json"))

let disk_write t ~ns k payload =
  match disk_path t ~ns k with
  | None -> ()
  | Some path -> (
    try
      mkdir_p (Filename.dirname path);
      (* Serialize the payload exactly once: the string is digested and
         then spliced into the document between hand-written envelope
         fields, instead of serializing the payload a second time inside
         [Json.to_string doc]. The envelope values are schema-controlled
         (int, namespace, hex key), so the splice cannot produce invalid
         JSON; [disk_read] still parses the result as an ordinary
         document. *)
      let payload_str = Json.to_string payload in
      (* Byte-identical to [Json.to_string doc] for the five-field
         document the old writer built. *)
      let doc_str =
        String.concat ""
          [ Printf.sprintf "{\"schema\":%d," schema;
            Printf.sprintf "\"ns\":%s," (Json.to_string (Json.Str ns));
            Printf.sprintf "\"key\":%s," (Json.to_string (Json.Str k));
            Printf.sprintf "\"payload_digest\":\"%s\","
              (Chash.to_hex (Chash.string payload_str));
            "\"payload\":"; payload_str; "}" ]
      in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
          (Domain.self () :> int)
      in
      (* The tmp file must not outlive this call: if anything between
         [open_out_bin] and [Sys.rename] fails (disk full, destination
         unwritable), unlink it instead of leaking an orphan per failed
         store. After a successful rename the path no longer exists and
         the remove is a no-op. *)
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc doc_str);
          Sys.rename tmp path)
    with Sys_error _ | Unix.Unix_error _ ->
      (* A full disk or permission problem degrades to memory-only. *)
      counter ns "disk_write_errors")

(* Load and verify one disk entry; any failure whatsoever is a miss (and,
   past mere absence, a [disk_corrupt] tick). *)
let disk_read t ~ns k : Json.t option =
  match disk_path t ~ns k with
  | None -> None
  | Some path ->
    if not (Sys.file_exists path) then None
    else begin
      let corrupt () =
        counter ns "disk_corrupt";
        None
      in
      let raw =
        try
          let ic = open_in_bin path in
          Some
            (Fun.protect
               ~finally:(fun () -> close_in ic)
               (fun () -> really_input_string ic (in_channel_length ic)))
        with Sys_error _ | End_of_file -> None
      in
      match raw with
      | None -> corrupt ()
      | Some raw -> (
        match Json.parse raw with
        | Error _ -> corrupt ()
        | Ok doc ->
          let str name = Option.bind (Json.member name doc) Json.get_str in
          let int name = Option.bind (Json.member name doc) Json.get_int in
          (match (int "schema", str "ns", str "key", str "payload_digest",
                  Json.member "payload" doc)
           with
           | Some s, Some n, Some k', Some d, Some payload
             when s = schema && n = ns && k' = k
                  && Chash.to_hex (Chash.string (Json.to_string payload)) = d
             -> Some payload
           | _ -> corrupt ()))
    end

(* ---- Public lookups ----------------------------------------------------- *)

let find_method t k =
  match tier_find t t.methods k with
  | Some e ->
    counter method_ns "hits";
    Some e
  | None -> (
    match disk_read t ~ns:method_ns k with
    | None ->
      counter method_ns "misses";
      None
    | Some payload -> (
      match method_entry_of_json payload with
      | Ok e ->
        counter method_ns "disk_hits";
        tier_put t ~ns:method_ns t.methods k e;
        Some e
      | Error _ ->
        (* Digest-valid file of the wrong shape: treat like corruption. *)
        counter method_ns "disk_corrupt";
        counter method_ns "misses";
        None))

let add_method t k e =
  counter method_ns "stores";
  tier_put t ~ns:method_ns t.methods k e;
  disk_write t ~ns:method_ns k (method_entry_to_json e)

let json_key ~ns k = ns ^ ":" ^ k

let find_json t ~ns k =
  check_ns ns;
  if ns = method_ns then invalid_arg "Cache.find_json: reserved namespace";
  match tier_find t t.json (json_key ~ns k) with
  | Some v ->
    counter ns "hits";
    Some v
  | None -> (
    match disk_read t ~ns k with
    | None ->
      counter ns "misses";
      None
    | Some payload ->
      counter ns "disk_hits";
      tier_put t ~ns t.json (json_key ~ns k) payload;
      Some payload)

let add_json t ~ns k v =
  check_ns ns;
  if ns = method_ns then invalid_arg "Cache.add_json: reserved namespace";
  counter ns "stores";
  tier_put t ~ns t.json (json_key ~ns k) v;
  disk_write t ~ns k v

(* Parsed bodies are cheaper to re-parse than to read back from disk, so
   this tier never leaves memory. *)
let body_memo t =
  { Calibro_dex.Dex_text.find =
      (fun k ->
        let v = tier_find t t.bodies k in
        Obs.Counter.incr
          (if Option.is_some v then "cache.body.hits" else "cache.body.misses");
        v);
    add =
      (fun k v ->
        Obs.Counter.incr "cache.body.stores";
        tier_put t ~ns:"body" t.bodies k v) }

let entry_files t =
  match t.dir with
  | None -> []
  | Some root ->
    if not (Sys.file_exists root) then []
    else
      Sys.readdir root |> Array.to_list
      |> List.concat_map (fun ns ->
             let d = Filename.concat root ns in
             if Sys.is_directory d then
               Sys.readdir d |> Array.to_list
               |> List.filter (fun f -> Filename.check_suffix f ".json")
               |> List.map (Filename.concat d)
             else [])
      |> List.sort compare
