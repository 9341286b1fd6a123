(** The calibrod wire protocol: length-prefixed binary frames over a
    Unix-domain stream socket.

    Every message is one frame: a 4-byte magic ({!magic}), a little-endian
    u32 payload length, then the payload. Frames larger than {!max_frame}
    are rejected before the payload is read, and a frame cut short by the
    peer surfaces as a clean {!Frame_error}, never a blind [Bytes.sub]
    failure.

    The connection lifecycle is one-shot, like HTTP/1.0: the client sends
    exactly one request frame, the daemon answers with exactly one
    response frame and closes. Admission control, deadlines and drain all
    speak through the typed {!rejection} codes, so a client can always
    distinguish "the daemon refused" from "the connection died".

    The codec is hand-rolled (no [Marshal] on the wire): every field is
    written explicitly, so a frame produced by one build of calibrod can
    be decoded by another, and a corrupt frame fails field-by-field with
    a message saying what ran out. *)

(** {2 Framing} *)

val magic : string
(** ["CLB1"] — 4 bytes at the start of every frame. *)

val max_frame : int
(** Upper bound on a payload, in bytes (64 MiB). Oversized frames are
    rejected from the header alone. *)

exception Frame_error of string
(** Raised by {!read_frame} on EOF, bad magic, an oversized length or a
    payload cut short, and by {!write_frame} on an oversized payload or a
    write that makes no progress — protocol-level damage, as opposed to
    [Unix.Unix_error] which escapes for the caller to interpret (e.g. a
    receive timeout on a stalled client). *)

val read_frame : Unix.file_descr -> string
(** Read one frame, returning its payload.
    @raise Frame_error on protocol damage (see above). *)

val write_frame :
  ?write:(Unix.file_descr -> string -> int -> int -> int) ->
  Unix.file_descr -> string -> unit
(** Frame [payload] and write it fully, header and payload in one write
    loop; every response kind, [Built] included, leaves through here.
    Retries short writes and [EINTR]. Unix errors (e.g. [EPIPE] when the
    peer vanished) escape to the caller.
    @raise Frame_error if [payload] exceeds {!max_frame}, or if a write
    returns 0 for a nonempty remainder (retrying would spin forever).
    [write] substitutes the write syscall, {!Unix.write_substring}
    (tests). *)

val write_framed :
  ?write:(Unix.file_descr -> string -> int -> int -> int) ->
  Unix.file_descr -> string -> unit
(** {!write_frame} for bytes that are already a whole frame (header
    included), such as {!frame_response}'s: sent as they are, with no
    copy. Same errors as {!write_frame}. *)

val to_frame : string -> string
(** The exact bytes {!write_frame} would send: header plus payload. The
    fault-injection tests mangle this ({!Calibro_check.Fault.Server}). *)

(** {2 Requests} *)

type build_request = Calibro_core.Request.t = {
  rq_config : Calibro_core.Config.t;
  rq_dexsim : string;
  rq_profile : string option;
  rq_deadline_ms : int option;
  rq_dict : string option;
  rq_shelve : float option;
}
(** The wire form of {!Calibro_core.Request.t}, which documents each
    field; the PGO manager keys on the same record. *)

type profile_report = {
  pr_app : string;
      (** the app's digest — {!request_app_digest} of the build that
          produced the OAT the client is running, i.e.
          [Calibro_chash.Chash.string rq_dexsim] *)
  pr_profile : string;
      (** simpleperf-style profile text ({!Calibro_profile.Profile}
          format) collected from that OAT *)
}
(** The PGO feedback frame: per-method cycle counts streamed back from a
    client running a served OAT. *)

(** What a client can ask: a build, the dictionary handshake — [Hello]
    answers with {!response.Dict_info} carrying the digest of the shared
    dictionary the daemon currently links against, so a client can learn
    what to put in [rq_dict] (and when a rotation happened) — or a
    profile report feeding the PGO drift loop. Like [Hello], [Report] is
    answered even while the daemon drains (merging a report is cheap and
    side-effect-free; a drain never schedules a relink). *)
type request = Build of build_request | Hello | Report of profile_report

val encode_request : build_request -> string
(** Encodes [Build r]. *)

val encode_hello : unit -> string

val encode_report : profile_report -> string
(** Encodes [Report r]. *)

val decode_request : string -> (request, string) result
(** Payload codec; [decode_request (encode_request r) = Ok (Build r)],
    [decode_request (encode_hello ()) = Ok Hello] and
    [decode_request (encode_report r) = Ok (Report r)]. *)

(** {2 Responses} *)

type build_stats = {
  bs_text_size : int;
  bs_methods : int;
  bs_thunks : int;
  bs_outlined : int;
  bs_build_s : float;  (** server-side wall time of the pipeline proper *)
}

(** Why the daemon refused (or failed) a request. Every rejection is a
    first-class response: clients never infer failure from a dropped
    connection. *)
type rejection =
  | Malformed of string  (** frame decoded but the request did not *)
  | Parse_error of string  (** .dexsim or profile text did not parse *)
  | Build_failed of string
      (** typed pipeline failure: [Build_error], [Ltbo_error],
          [Pass_error] — the job was bad, the daemon is fine *)
  | Overloaded  (** admission queue full: back off and retry *)
  | Deadline_exceeded
  | Draining  (** daemon is shutting down and refuses new work *)
  | Unavailable
      (** the {!Router} found no live shard: every daemon in the fleet is
          down or unreachable after retries *)
  | Internal of string  (** anything else; the daemon survived it *)
  | Dict_mismatch of { dm_want : string option; dm_have : string option }
      (** the request's [rq_dict] names a dictionary this daemon does not
          serve (e.g. it rotated since the client's [Hello]); the client
          should re-handshake and retry *)
  | Unknown_app of string
      (** a {!profile_report} named an app digest this daemon never
          built (or PGO is disabled): there is no served hot set to
          drift from, so the report cannot be attributed *)

val rejection_to_string : rejection -> string

type response =
  | Built of { oat : string;  (** [Calibro_oat.Oat_file.to_bytes] image *)
               stats : build_stats }
  | Rejected of rejection
  | Dict_info of { di_digest : string option }
      (** answer to [Hello]: the digest of the shared dictionary the
          daemon links dictionary-relative builds against ([None] = it
          serves only self-contained builds) *)
  | Report_ack of { ra_drift : float; ra_relink : bool }
      (** answer to [Report]: the drift score of the accumulated profile
          against the served hot set, and whether this report crossed
          the hysteresis threshold and scheduled an incremental
          re-link *)

val encode_response : response -> string
val decode_response : string -> (response, string) result

val frame_response : response -> string
(** [to_frame (encode_response r)], built in the encoder's own buffer:
    the response leaves it in one copy, ready for {!write_framed}. *)

(** {2 Router views}

    The {!Router} forwards request and response payloads byte-for-byte;
    it never re-encodes a frame. These helpers are the only two peeks it
    takes into a payload. *)

val request_app_digest : string -> string option
(** The shard-affinity key of an encoded request: the
    {!Calibro_chash.Chash} digest of its [rq_dexsim] text, read by
    skipping (not decoding) the leading config.
    [None] if the payload is not a well-formed build request up to that
    field — the router then hashes the raw payload instead. *)

val response_is_draining : string -> bool
(** Whether an encoded response payload is exactly [Rejected Draining] —
    the signal that a shard is leaving the fleet and the request should
    be re-routed to a survivor. *)
