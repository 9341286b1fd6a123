(* The worker pool. See worker.mli for the isolation and deadline
   contract. *)

open Calibro_core
module Obs = Calibro_obs.Obs
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json
module Pgo = Calibro_pgo.Pgo
module Chash = Calibro_chash.Chash

type client_job = {
  j_id : int;
  j_fd : Unix.file_descr;
  j_request : Protocol.build_request;
  j_deadline_ns : int64 option;
  j_accepted_ns : int64;
}

type relink_job = { r_digest : string; r_request : Protocol.build_request }

type job = Client of client_job | Relink of relink_job

type pool = { domains : unit Domain.t list }

(* ---- Connection plumbing ------------------------------------------------ *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let respond fd resp =
  let delivered =
    match Protocol.write_frame fd (Protocol.encode_response resp) with
    | () -> true
    | exception Unix.Unix_error _ -> false
    | exception Protocol.Frame_error _ -> false
  in
  close_quietly fd;
  delivered

(* The client speaks first and exactly once, then blocks on the reply; a
   readable fd whose peek returns 0 bytes means it hung up. *)
let client_gone fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> (
    let b = Bytes.create 1 in
    match Unix.recv fd b 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true)
  | _ -> false
  | exception Unix.Unix_error _ -> true

(* ---- The job body ------------------------------------------------------- *)

let expired deadline_ns =
  match deadline_ns with
  | None -> false
  | Some d -> Int64.compare (Clock.now_ns ()) d > 0

(* Build stats for an OAT: sizes from the container, plus the build
   time (for an OAT served from the PGO refresh store, the relink's). *)
let stats_of_oat ~build_s (oat : Calibro_oat.Oat_file.t) =
  { Protocol.bs_text_size = Calibro_oat.Oat_file.text_size oat;
    bs_methods = List.length oat.Calibro_oat.Oat_file.methods;
    bs_thunks = List.length oat.Calibro_oat.Oat_file.thunks;
    bs_outlined = List.length oat.Calibro_oat.Oat_file.outlined;
    bs_build_s = build_s }

(* Parse, build, summarize. Every failure mode a request can provoke maps
   to a typed rejection; nothing escapes. Returns the whole build record:
   the serving path emits the response frame straight from its OAT
   ([Protocol.emit_built]) without materializing the container string,
   its config's hot methods (config hot methods merged with the request
   profile's) are the PGO loop's "served hot set", and its cache hits are
   what a relink reports. *)
let build ~cache ?dict (rq : Protocol.build_request) :
    (Pipeline.build * Protocol.build_stats, Protocol.rejection) result =
  let ( let* ) = Result.bind in
  let parse_error prefix =
    Result.map_error (fun e -> Protocol.Parse_error (prefix ^ e))
  in
  match
    (* Resolve the dictionary the request asked for against the one this
       daemon serves. [rq_dict = None] is a self-contained build whatever
       the daemon holds; [Some want] must match the served digest exactly
       — a client that raced a rotation gets a typed mismatch and can
       re-handshake, never silently a build against the wrong image. *)
    let digest (d : Calibro_oat.Linker.dict) =
      d.Calibro_oat.Linker.dct_digest
    in
    let* dict =
      match (rq.Protocol.rq_dict, dict) with
      | None, _ -> Ok None
      | Some want, Some d when digest d = want -> Ok (Some d)
      | Some want, have ->
        Error
          (Protocol.Dict_mismatch
             { dm_want = Some want; dm_have = Option.map digest have })
    in
    let* apk =
      parse_error "" (Calibro_dex.Dex_text.parse rq.Protocol.rq_dexsim)
    in
    let* profile =
      match rq.Protocol.rq_profile with
      | None -> Ok None
      | Some text ->
        parse_error "profile: "
          (Result.map Option.some (Calibro_profile.Profile.of_string text))
    in
    let hot =
      match profile with
      | None -> []
      | Some p -> Calibro_profile.Profile.hot_set p
    in
    let config =
      let c = rq.Protocol.rq_config in
      if hot = [] then c
      else
        { c with
          Config.hot_methods =
            List.sort_uniq compare (c.Config.hot_methods @ hot) }
    in
    (* Shelving needs a profile to draw the warm set from: a threshold
       without one (a fresh app nobody has run) builds unshelved rather
       than shelving everything blind. *)
    let shelve =
      match (rq.Protocol.rq_shelve, profile) with
      | Some coverage, Some p ->
        Some (Calibro_shelve.Shelve.of_profile ~coverage p)
      | _ -> None
    in
    let t0 = Clock.now_ns () in
    let b = Pipeline.build ~cache ~config ?dict ?shelve apk in
    Ok (b, stats_of_oat ~build_s:(Clock.since_s t0) b.Pipeline.b_oat)
  with
  | r -> r
  | exception Pipeline.Build_error m -> Error (Protocol.Build_failed m)
  | exception Calibro_shelve.Shelve.Shelve_error m ->
    Error (Protocol.Build_failed ("shelve: " ^ m))
  | exception Ltbo.Ltbo_error m -> Error (Protocol.Build_failed ("ltbo: " ^ m))
  | exception Calibro_hgraph.Passes.Pass_error m ->
    Error (Protocol.Build_failed ("ir passes: " ^ m))
  | exception Calibro_dex.Dex_text.Parse_error { line; message } ->
    Error (Protocol.Parse_error (Printf.sprintf "line %d: %s" line message))
  | exception e -> Error (Protocol.Internal (Printexc.to_string e))

let build_oat ~cache ?dict rq =
  Result.map (fun (b, stats) -> (b.Pipeline.b_oat, stats)) (build ~cache ?dict rq)

let hot_of (b : Pipeline.build) = b.Pipeline.b_config.Config.hot_methods

let build_response ~cache ?dict (rq : Protocol.build_request) :
    Protocol.response =
  match build_oat ~cache ?dict rq with
  | Ok (oat, stats) ->
    Protocol.Built
      { oat = Bytes.to_string (Calibro_oat.Oat_file.to_bytes oat); stats }
  | Error rej -> Protocol.Rejected rej

(* Serve a successful build zero-copy: frame emitted into the domain's
   scratch arena straight from the Oat_file, one staged drain to the
   socket. Same delivery contract as [respond]. *)
let respond_built fd ~oat ~stats =
  let delivered =
    match
      Calibro_oat.Arena.with_scratch (fun a ->
          Protocol.emit_built a ~oat ~stats;
          Protocol.write_arena fd a)
    with
    | () -> true
    | exception Unix.Unix_error _ -> false
    | exception Protocol.Frame_error _ -> false
  in
  close_quietly fd;
  delivered

let outcome_counter = function
  | Ok _ -> "ok"
  | Error (Protocol.Parse_error _) -> "parse_error"
  | Error (Protocol.Build_failed _) -> "build_error"
  | Error Protocol.Deadline_exceeded -> "deadline"
  | Error (Protocol.Dict_mismatch _) -> "dict_mismatch"
  | Error (Protocol.Internal _) -> "internal_error"
  | Error _ -> "rejected"

let handle_client ~cache ~dict ~pgo (job : client_job) =
  Obs.span ~cat:"server" "server.job"
    ~args:(fun () ->
      [ ("id", Json.Int job.j_id);
        ("config", Json.Str job.j_request.Protocol.rq_config.Config.name) ])
  @@ fun () ->
  Obs.Histogram.observe "server.queue_wait_s"
    (Int64.to_float (Int64.sub (Clock.now_ns ()) job.j_accepted_ns) /. 1e9);
  if client_gone job.j_fd then begin
    (* The client hung up while the job sat in the queue: cancel. *)
    Obs.Counter.incr "server.jobs.cancelled";
    close_quietly job.j_fd
  end
  else if expired job.j_deadline_ns then begin
    Obs.Counter.incr "server.jobs.deadline";
    ignore (respond job.j_fd (Protocol.Rejected Protocol.Deadline_exceeded))
  end
  else begin
    (* The PGO refresh store first: if a drift relink landed for exactly
       this request, the worker serves the refreshed OAT without
       building — that is how the fleet converges to the new profile
       without clients changing their requests. *)
    let refreshed =
      match pgo with
      | None -> None
      | Some m ->
        let digest = Chash.string job.j_request.Protocol.rq_dexsim in
        Pgo.Manager.refreshed m ~digest ~key:job.j_request
    in
    match refreshed with
    | Some (oat, build_s) ->
      Obs.Counter.incr "server.jobs.ok";
      Obs.Counter.incr "server.jobs.refreshed";
      let stats = stats_of_oat ~build_s oat in
      if not (respond_built job.j_fd ~oat ~stats) then
        Obs.Counter.incr "server.responses.lost";
      Obs.Histogram.observe "server.latency_s"
        (Int64.to_float (Int64.sub (Clock.now_ns ()) job.j_accepted_ns)
        /. 1e9)
    | None ->
      (* GC accounting for the gate's allocated-bytes-per-served-build
         line: everything from parse to the last frame byte, this domain
         only. *)
      let alloc0 = Gc.allocated_bytes () in
      (* The dictionary is read at dispatch time: a job admitted before a
         rotation builds against the dictionary of the moment it runs, and
         the digest check inside [build_oat] keeps the answer honest. *)
      let result = build ~cache ?dict:(dict ()) job.j_request in
      (* A result the deadline already passed is useless to the caller:
         report it as exceeded, honestly, rather than as success. *)
      let result =
        match result with
        | Ok _ when expired job.j_deadline_ns ->
          Error Protocol.Deadline_exceeded
        | r -> r
      in
      Obs.Counter.incr ("server.jobs." ^ outcome_counter result);
      (* Register the build with the PGO loop BEFORE answering: a client
         that pipelines Built -> Report must find its app registered, or
         the first report of a fresh connection races into Unknown_app. *)
      (match (result, pgo) with
      | Ok (b, _), Some m ->
        let rq = job.j_request in
        Pgo.Manager.note_build m
          ~digest:(Chash.string rq.Protocol.rq_dexsim)
          ~app:b.Pipeline.b_oat.Calibro_oat.Oat_file.apk_name
          ~key:rq ~hot:(hot_of b)
      | _ -> ());
      let delivered =
        match result with
        | Ok (b, stats) -> respond_built job.j_fd ~oat:b.Pipeline.b_oat ~stats
        | Error rej -> respond job.j_fd (Protocol.Rejected rej)
      in
      if not delivered then Obs.Counter.incr "server.responses.lost";
      (match result with
      | Ok _ ->
        Obs.Counter.add "server.built.alloc_bytes"
          (int_of_float (Gc.allocated_bytes () -. alloc0))
      | Error _ -> ());
      Obs.Histogram.observe "server.latency_s"
        (Int64.to_float (Int64.sub (Clock.now_ns ()) job.j_accepted_ns)
        /. 1e9)
  end

(* A drift relink: the same build body as a client job, but the result
   lands in the PGO refresh store instead of on a socket. Failures clear
   the manager's in-flight latch; nothing answers a client, because no
   client is waiting. *)
let handle_relink ~cache ~dict ~pgo (job : relink_job) =
  match pgo with
  | None -> ()
  | Some m ->
    Obs.span ~cat:"server" "server.relink"
      ~args:(fun () -> [ ("app", Json.Str (Chash.to_hex job.r_digest)) ])
    @@ fun () ->
    match build ~cache ?dict:(dict ()) job.r_request with
    | Ok (b, stats) ->
      Pgo.Manager.relink_done m ~digest:job.r_digest ~oat:b.Pipeline.b_oat
        ~build_s:stats.Protocol.bs_build_s ~hot:(hot_of b)
        ~cache_hits:b.Pipeline.b_cache_hits
    | Error _ ->
      Obs.Counter.incr "server.jobs.relink_failed";
      Pgo.Manager.relink_failed m ~digest:job.r_digest

let handle ~cache ~dict ~pgo (job : job) =
  match job with
  | Client j -> handle_client ~cache ~dict ~pgo j
  | Relink j -> handle_relink ~cache ~dict ~pgo j

(* ---- The pool ----------------------------------------------------------- *)

let job_fd = function Client j -> Some j.j_fd | Relink _ -> None

let worker_loop ~cache ~dict ~pgo queue () =
  Obs.span ~cat:"server" "server.worker" @@ fun () ->
  let rec loop () =
    match Queue.pop queue with
    | None -> ()
    | Some job ->
      (* [handle] maps every job failure to a response; this last-resort
         catch covers bugs in the handler itself (e.g. a pathological fd):
         the worker logs and lives on. *)
      (match handle ~cache ~dict ~pgo job with
       | () -> ()
       | exception _ ->
         Obs.Counter.incr "server.jobs.handler_error";
         Option.iter close_quietly (job_fd job));
      loop ()
  in
  loop ()

let start ~workers ~cache ?(dict = fun () -> None) ?pgo ~queue () =
  let workers = max 1 workers in
  Obs.Gauge.set "server.workers" (float_of_int workers);
  { domains =
      List.init workers (fun _ ->
          Domain.spawn (worker_loop ~cache ~dict ~pgo queue)) }

let join pool = List.iter Domain.join pool.domains
