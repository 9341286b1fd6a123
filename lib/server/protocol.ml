(* The calibrod wire protocol. See protocol.mli for the frame layout and
   lifecycle; this file is the codec.

   Encoding discipline: little-endian fixed-width integers, u32
   length-prefixed strings, 0/1 bytes for booleans and option tags —
   nothing implicit, no [Marshal]. Decoding reads through a cursor that
   bounds-checks every field, so damage anywhere in a frame produces a
   message naming the field that ran out rather than an exception from
   the bowels of [Bytes]. *)

open Calibro_core

let magic = "CLB1"
let max_frame = 64 * 1024 * 1024

exception Frame_error of string

(* ---- Socket framing ---------------------------------------------------- *)

let rec restart_on_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_intr f

let really_read fd n ~what =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then buf
    else
      let k = restart_on_intr (fun () -> Unix.read fd buf off (n - off)) in
      if k = 0 then
        raise
          (Frame_error
             (Printf.sprintf "unexpected EOF reading %s (%d of %d bytes)"
                what off n))
      else go (off + k)
  in
  go 0

(* The one socket writer: every frame, whatever its kind, leaves in a
   single [write] loop with header and payload together (the accepted TCP
   sockets keep Nagle on, so a split header risks a delayed-ACK stall).
   [write] is the syscall, substitutable by tests. *)
let really_write ~write fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match restart_on_intr (fun () -> write fd s off (n - off)) with
      | 0 ->
        (* A blocking write never returns 0 for a nonempty buffer;
           retrying would spin this thread forever. *)
        raise
          (Frame_error
             (Printf.sprintf "zero-length write (%d of %d bytes unsent)"
                (n - off) n))
      | k -> go (off + k)
  in
  go 0

let write_framed ?(write = Unix.write_substring) fd frame =
  if String.length frame - 8 > max_frame then
    raise (Frame_error "refusing to send oversized frame");
  really_write ~write fd frame

let set_header f =
  Bytes.blit_string magic 0 f 0 4;
  Bytes.set_int32_le f 4 (Int32.of_int (Bytes.length f - 8))

let to_frame payload =
  let f = Bytes.create (8 + String.length payload) in
  set_header f;
  Bytes.blit_string payload 0 f 8 (String.length payload);
  Bytes.unsafe_to_string f

let write_frame ?write fd payload = write_framed ?write fd (to_frame payload)

(* An encoder writes its payload after 8 reserved header bytes in its own
   buffer, so the finished frame leaves the buffer in one copy
   ([framed]), and so does the bare payload ([payload]). *)
let encoder hint =
  let b = Buffer.create (hint + 8) in
  Buffer.add_int64_le b 0L;
  b

let framed b =
  let f = Buffer.to_bytes b in
  set_header f;
  Bytes.unsafe_to_string f

let payload b = Buffer.sub b 8 (Buffer.length b - 8)

let read_frame fd =
  let hdr = really_read fd 8 ~what:"frame header" in
  let m = Bytes.sub_string hdr 0 4 in
  if m <> magic then
    raise (Frame_error (Printf.sprintf "bad frame magic %S" m));
  let len = Int32.to_int (Bytes.get_int32_le hdr 4) in
  if len < 0 || len > max_frame then
    raise (Frame_error (Printf.sprintf "oversized frame: %d bytes" len));
  Bytes.to_string (really_read fd len ~what:"frame payload")

(* ---- Primitive writers -------------------------------------------------- *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "u32 out of range: %d" v);
  Buffer.add_int32_le b (Int32.of_int v)

let w_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_opt w b = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    w b v

let w_list w b l =
  w_u32 b (List.length l);
  List.iter (w b) l

(* ---- Primitive readers --------------------------------------------------

   A cursor over the payload string. Every read names its field so a
   truncated or mangled frame reports *which* field was cut. *)

exception Decode_error of string

type cursor = { src : string; mutable pos : int }

let need c n ~what =
  if c.pos + n > String.length c.src then
    raise
      (Decode_error
         (Printf.sprintf "truncated payload: %s needs %d bytes at offset %d, \
                          payload is %d bytes"
            what n c.pos (String.length c.src)))

let r_u8 c ~what =
  need c 1 ~what;
  let v = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_bool c ~what =
  match r_u8 c ~what with
  | 0 -> false
  | 1 -> true
  | v -> raise (Decode_error (Printf.sprintf "bad boolean %d in %s" v what))

let r_u32 c ~what =
  need c 4 ~what;
  let v = Int32.to_int (String.get_int32_le c.src c.pos) in
  c.pos <- c.pos + 4;
  (* int32 round-trips negative for the top bit; reinterpret as u32 *)
  let v = v land 0xFFFFFFFF in
  v

let r_f64 c ~what =
  need c 8 ~what;
  let v = Int64.float_of_bits (String.get_int64_le c.src c.pos) in
  c.pos <- c.pos + 8;
  v

let r_str c ~what =
  let len = r_u32 c ~what:(what ^ " length") in
  need c len ~what;
  let s = String.sub c.src c.pos len in
  c.pos <- c.pos + len;
  s

let r_opt r c ~what =
  match r_u8 c ~what:(what ^ " tag") with
  | 0 -> None
  | 1 -> Some (r c ~what)
  | v -> raise (Decode_error (Printf.sprintf "bad option tag %d in %s" v what))

let r_list r c ~what =
  let n = r_u32 c ~what:(what ^ " count") in
  List.init n (fun i -> r c ~what:(Printf.sprintf "%s[%d]" what i))

let finish c what =
  if c.pos <> String.length c.src then
    raise
      (Decode_error
         (Printf.sprintf "%d trailing bytes after %s"
            (String.length c.src - c.pos)
            what))

let decoding f s =
  match f { src = s; pos = 0 } with
  | v -> Ok v
  | exception Decode_error m -> Error m

(* ---- Configuration ------------------------------------------------------ *)

let w_method_ref b (m : Calibro_dex.Dex_ir.method_ref) =
  w_str b m.Calibro_dex.Dex_ir.class_name;
  w_str b m.Calibro_dex.Dex_ir.method_name

let r_method_ref c ~what =
  let class_name = r_str c ~what:(what ^ ".class") in
  let method_name = r_str c ~what:(what ^ ".method") in
  { Calibro_dex.Dex_ir.class_name; method_name }

let w_config b (cfg : Config.t) =
  w_str b cfg.Config.name;
  w_bool b cfg.Config.optimize_ir;
  w_bool b cfg.Config.cto;
  w_bool b cfg.Config.ltbo;
  w_u32 b cfg.Config.parallel_trees;
  w_list w_method_ref b cfg.Config.hot_methods;
  w_u32 b cfg.Config.ltbo_min_length;
  w_u32 b cfg.Config.ltbo_max_length;
  w_u32 b cfg.Config.ltbo_rounds

let r_config c =
  let name = r_str c ~what:"config.name" in
  let optimize_ir = r_bool c ~what:"config.optimize_ir" in
  let cto = r_bool c ~what:"config.cto" in
  let ltbo = r_bool c ~what:"config.ltbo" in
  let parallel_trees = r_u32 c ~what:"config.parallel_trees" in
  let hot_methods = r_list r_method_ref c ~what:"config.hot_methods" in
  let ltbo_min_length = r_u32 c ~what:"config.ltbo_min_length" in
  let ltbo_max_length = r_u32 c ~what:"config.ltbo_max_length" in
  let ltbo_rounds = r_u32 c ~what:"config.ltbo_rounds" in
  { Config.name; optimize_ir; cto; ltbo; parallel_trees; hot_methods;
    ltbo_min_length; ltbo_max_length; ltbo_rounds }

(* ---- Requests ------------------------------------------------------------ *)

type build_request = Calibro_core.Request.t = {
  rq_config : Config.t;
  rq_dexsim : string;
  rq_profile : string option;
  rq_deadline_ms : int option;
  rq_dict : string option;
  rq_shelve : float option;
}

type profile_report = { pr_app : string; pr_profile : string }

type request = Build of build_request | Hello | Report of profile_report

let tag_build = 1
let tag_hello = 2
let tag_report = 3

let encode_request (r : build_request) =
  let b = Buffer.create (String.length r.rq_dexsim + 256) in
  w_u8 b tag_build;
  w_config b r.rq_config;
  w_str b r.rq_dexsim;
  w_opt w_str b r.rq_profile;
  w_opt w_u32 b r.rq_deadline_ms;
  w_opt w_str b r.rq_dict;
  w_opt w_f64 b r.rq_shelve;
  Buffer.contents b

let encode_hello () = String.make 1 (Char.chr tag_hello)

let encode_report (r : profile_report) =
  let b = Buffer.create (String.length r.pr_profile + 64) in
  w_u8 b tag_report;
  w_str b r.pr_app;
  w_str b r.pr_profile;
  Buffer.contents b

let decode_request =
  decoding @@ fun c ->
  let tag = r_u8 c ~what:"request tag" in
  if tag = tag_hello then begin
    finish c "hello request";
    Hello
  end
  else if tag = tag_report then begin
    let pr_app = r_str c ~what:"report.app" in
    let pr_profile = r_str c ~what:"report.profile" in
    finish c "profile report";
    Report { pr_app; pr_profile }
  end
  else begin
    if tag <> tag_build then
      raise (Decode_error (Printf.sprintf "unknown request tag %d" tag));
    let rq_config = r_config c in
    let rq_dexsim = r_str c ~what:"dexsim" in
    let rq_profile = r_opt r_str c ~what:"profile" in
    let rq_deadline_ms = r_opt r_u32 c ~what:"deadline_ms" in
    let rq_dict = r_opt r_str c ~what:"dict" in
    let rq_shelve = r_opt r_f64 c ~what:"shelve" in
    finish c "build request";
    Build
      { rq_config; rq_dexsim; rq_profile; rq_deadline_ms; rq_dict; rq_shelve }
  end

(* ---- Responses ----------------------------------------------------------- *)

type build_stats = {
  bs_text_size : int;
  bs_methods : int;
  bs_thunks : int;
  bs_outlined : int;
  bs_build_s : float;
}

type rejection =
  | Malformed of string
  | Parse_error of string
  | Build_failed of string
  | Overloaded
  | Deadline_exceeded
  | Draining
  | Unavailable
  | Internal of string
  | Dict_mismatch of { dm_want : string option; dm_have : string option }
  | Unknown_app of string

let opt_digest = function None -> "none" | Some d -> d

let rejection_to_string = function
  | Malformed m -> "malformed request: " ^ m
  | Parse_error m -> "parse error: " ^ m
  | Build_failed m -> "build failed: " ^ m
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline exceeded"
  | Draining -> "draining"
  | Unavailable -> "unavailable: no live shard"
  | Internal m -> "internal error: " ^ m
  | Dict_mismatch { dm_want; dm_have } ->
    Printf.sprintf "dictionary mismatch: request wants %s, daemon serves %s"
      (opt_digest dm_want) (opt_digest dm_have)
  | Unknown_app d -> Printf.sprintf "unknown app %s: never built here" d

type response =
  | Built of { oat : string; stats : build_stats }
  | Rejected of rejection
  | Dict_info of { di_digest : string option }
  | Report_ack of { ra_drift : float; ra_relink : bool }

let tag_built = 1
let tag_rejected = 2
let tag_dict_info = 3
let tag_report_ack = 4

(* Rejection codes on the wire; codes with a message carry one string
   (Dict_mismatch carries its two optional digests). *)
let rejection_code = function
  | Malformed _ -> 1
  | Parse_error _ -> 2
  | Build_failed _ -> 3
  | Overloaded -> 4
  | Deadline_exceeded -> 5
  | Draining -> 6
  | Internal _ -> 7
  | Unavailable -> 8
  | Dict_mismatch _ -> 9
  | Unknown_app _ -> 10

let response_encoder (r : response) =
  let b =
    encoder
      (match r with Built { oat; _ } -> String.length oat + 64 | _ -> 64)
  in
  (match r with
   | Built { oat; stats } ->
     w_u8 b tag_built;
     w_str b oat;
     w_u32 b stats.bs_text_size;
     w_u32 b stats.bs_methods;
     w_u32 b stats.bs_thunks;
     w_u32 b stats.bs_outlined;
     w_f64 b stats.bs_build_s
   | Rejected rej ->
     w_u8 b tag_rejected;
     w_u8 b (rejection_code rej);
     (match rej with
      | Malformed m | Parse_error m | Build_failed m | Internal m ->
        w_str b m
      | Dict_mismatch { dm_want; dm_have } ->
        w_opt w_str b dm_want;
        w_opt w_str b dm_have
      | Unknown_app d -> w_str b d
      | Overloaded | Deadline_exceeded | Draining | Unavailable -> ())
   | Dict_info { di_digest } ->
     w_u8 b tag_dict_info;
     w_opt w_str b di_digest
   | Report_ack { ra_drift; ra_relink } ->
     w_u8 b tag_report_ack;
     w_f64 b ra_drift;
     w_bool b ra_relink);
  b

let encode_response r = payload (response_encoder r)
let frame_response r = framed (response_encoder r)

let decode_response =
  decoding @@ fun c ->
  let tag = r_u8 c ~what:"response tag" in
  let r =
    if tag = tag_built then begin
      let oat = r_str c ~what:"oat" in
      let bs_text_size = r_u32 c ~what:"stats.text_size" in
      let bs_methods = r_u32 c ~what:"stats.methods" in
      let bs_thunks = r_u32 c ~what:"stats.thunks" in
      let bs_outlined = r_u32 c ~what:"stats.outlined" in
      let bs_build_s = r_f64 c ~what:"stats.build_s" in
      Built
        { oat;
          stats =
            { bs_text_size; bs_methods; bs_thunks; bs_outlined; bs_build_s } }
    end
    else if tag = tag_rejected then begin
      let code = r_u8 c ~what:"rejection code" in
      let msg ~what = r_str c ~what in
      Rejected
        (match code with
         | 1 -> Malformed (msg ~what:"malformed message")
         | 2 -> Parse_error (msg ~what:"parse-error message")
         | 3 -> Build_failed (msg ~what:"build-failed message")
         | 4 -> Overloaded
         | 5 -> Deadline_exceeded
         | 6 -> Draining
         | 7 -> Internal (msg ~what:"internal-error message")
         | 8 -> Unavailable
         | 9 ->
           let dm_want = r_opt r_str c ~what:"dict-mismatch want" in
           let dm_have = r_opt r_str c ~what:"dict-mismatch have" in
           Dict_mismatch { dm_want; dm_have }
         | 10 -> Unknown_app (msg ~what:"unknown-app digest")
         | c ->
           raise (Decode_error (Printf.sprintf "unknown rejection code %d" c)))
    end
    else if tag = tag_dict_info then
      Dict_info { di_digest = r_opt r_str c ~what:"dict-info digest" }
    else if tag = tag_report_ack then begin
      let ra_drift = r_f64 c ~what:"report-ack drift" in
      let ra_relink = r_bool c ~what:"report-ack relink" in
      Report_ack { ra_drift; ra_relink }
    end
    else raise (Decode_error (Printf.sprintf "unknown response tag %d" tag))
  in
  finish c "response";
  r

(* ---- Router views ---------------------------------------------------------

   The router relays request and response payloads verbatim; these two
   helpers are the only peeks it takes, and neither re-encodes anything. *)

(* Digest of the request's application text — the fleet's shard-affinity
   key: the same app routed to the same daemon keeps that daemon's cache
   tier hot whatever the config or deadline says. The cursor skips the
   leading config rather than decoding the request; damage anywhere
   before the dexsim yields [None] (the router then hashes the raw
   payload, keeping even malformed traffic deterministically placed). *)
let request_app_digest payload =
  match
    let c = { src = payload; pos = 0 } in
    let tag = r_u8 c ~what:"request tag" in
    if tag <> tag_build then raise (Decode_error "not a build request");
    let (_ : Config.t) = r_config c in
    r_str c ~what:"dexsim"
  with
  | dexsim -> Some (Calibro_chash.Chash.string dexsim)
  | exception Decode_error _ -> None

(* A bare [Rejected Draining] payload, recognized from its two bytes. The
   router treats it as "this shard is leaving the fleet" and re-routes to
   a survivor instead of bouncing the client — the rolling-drain path. *)
let response_is_draining payload =
  String.length payload = 2
  && Char.code payload.[0] = tag_rejected
  && Char.code payload.[1] = rejection_code Draining
