(* Client side of the calibrod protocol. *)

type t = { fd : Unix.file_descr }

(* A daemon draining mid-request closes connections under us; without
   this, the resulting EPIPE kills the whole client process instead of
   failing one request. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let connect ep =
  Lazy.force ignore_sigpipe;
  { fd = Transport.connect ep }

let send t rq = Protocol.write_frame t.fd (Protocol.encode_request rq)

let recv t =
  match Protocol.read_frame t.fd with
  | payload -> Protocol.decode_response payload
  | exception Protocol.Frame_error m -> Error m
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request ~endpoint rq =
  match connect endpoint with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connect: " ^ Unix.error_message e)
  | t ->
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () ->
        match send t rq with
        | () -> recv t
        | exception Unix.Unix_error (e, _, _) ->
          Error ("send: " ^ Unix.error_message e)
        | exception Protocol.Frame_error m -> Error ("send: " ^ m))

let hello ~endpoint =
  match connect endpoint with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connect: " ^ Unix.error_message e)
  | t ->
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () ->
        match Protocol.write_frame t.fd (Protocol.encode_hello ()) with
        | exception Unix.Unix_error (e, _, _) ->
          Error ("send: " ^ Unix.error_message e)
        | exception Protocol.Frame_error m -> Error ("send: " ^ m)
        | () -> (
          match recv t with
          | Ok (Protocol.Dict_info { di_digest }) -> Ok di_digest
          | Ok (Protocol.Rejected rej) ->
            Error (Protocol.rejection_to_string rej)
          | Ok (Protocol.Built _ | Protocol.Report_ack _) ->
            Error "unexpected reply to hello"
          | Error _ as e -> e))

let report ~endpoint r =
  match connect endpoint with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connect: " ^ Unix.error_message e)
  | t ->
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () ->
        match Protocol.write_frame t.fd (Protocol.encode_report r) with
        | exception Unix.Unix_error (e, _, _) ->
          Error ("send: " ^ Unix.error_message e)
        | exception Protocol.Frame_error m -> Error ("send: " ^ m)
        | () -> (
          match recv t with
          | Ok (Protocol.Report_ack { ra_drift; ra_relink }) ->
            Ok (ra_drift, ra_relink)
          | Ok (Protocol.Rejected rej) ->
            Error (Protocol.rejection_to_string rej)
          | Ok (Protocol.Built _ | Protocol.Dict_info _) ->
            Error "unexpected reply to profile report"
          | Error _ as e -> e))
