(** The calibrod worker pool: a fixed set of OCaml 5 domains pulling jobs
    off the admission {!Queue} and running {!Calibro_core.Pipeline.build}
    against one shared {!Calibro_cache.Cache} — so identical methods
    compiled for different clients hit warm (the ShareJIT effect). LTBO
    detection results share it too, in one namespace under each build's
    {!Calibro_core.Pipeline.memo_scope}, so a dictionary-bound or shelved
    request never replays a plain one's.

    Isolation contract: a job can only fail its own request. Parse
    errors, [Build_error], [Ltbo_error], [Pass_error] and any other
    exception a build raises are mapped to a typed
    {!Protocol.rejection} and answered on the job's connection; nothing a
    client sends can kill a worker domain, let alone the daemon.

    Deadlines are enforced at dispatch (an expired job is answered
    [`Deadline_exceeded] without compiling) and re-checked at completion
    (a result the client's deadline already passed is reported as
    exceeded, not as success). A job whose client hung up while queued is
    cancelled without compiling.

    Each worker is a single-threaded domain, so its histograms and spans
    land in its own {!Calibro_obs.Obs} shard and trace lane; its
    [server.jobs.*] counters are the process-wide, live-readable ones. *)

type client_job = {
  j_id : int;
  j_fd : Unix.file_descr;
      (** the client connection; the worker answers and closes it *)
  j_request : Protocol.build_request;
  j_deadline_ns : int64 option;  (** absolute, {!Calibro_obs.Clock} scale *)
  j_accepted_ns : int64;  (** admission time, for queue-wait metrics *)
}

type relink_job = {
  r_digest : string;  (** the drifting app's digest *)
  r_request : Protocol.build_request;
      (** what to rebuild: the registered request with its profile
          replaced by the drifted one and no deadline *)
}
(** A PGO drift re-link, scheduled by {!Server} when
    {!Calibro_pgo.Pgo.Manager.report} crosses the hysteresis. It runs the
    same build body as a client job — warm, through the shared cache —
    but the result lands in the manager's refresh store
    ({!Calibro_pgo.Pgo.Manager.relink_done}) instead of on a socket. *)

type job = Client of client_job | Relink of relink_job

type pool

val start :
  workers:int -> cache:Calibro_cache.Cache.t option ->
  ?dict:(unit -> Calibro_oat.Linker.dict option) ->
  ?pgo:Calibro_pgo.Pgo.Manager.t -> queue:job Queue.t -> unit -> pool
(** Spawn [max 1 workers] domains looping on [queue]. [cache] is shared
    by every job ([None] = every build cold). [dict] is re-read at each
    dispatch, so a rotation (the daemon swapping its shared dictionary)
    takes effect on the next job without restarting the pool; the default
    serves no dictionary (every [rq_dict = Some _] request is answered
    [Dict_mismatch]). [pgo] is the drift manager: client builds register
    with it and are served from its refresh store when a relink landed
    for exactly their request; without it, [Relink] jobs are dropped. *)

val join : pool -> unit
(** Wait for every worker to exit; returns only after the queue is closed
    and fully drained. *)

val respond : Unix.file_descr -> Protocol.response -> bool
(** Answer a connection and close it. False if the reply could not be
    delivered (peer already gone) — the fd is closed either way. Never
    raises; used by both workers and the admission path. *)

val client_gone : Unix.file_descr -> bool
(** True if the peer has closed its end (EOF is pending). Used to cancel
    queued jobs whose client disconnected. *)

val build_oat :
  cache:Calibro_cache.Cache.t option -> ?dict:Calibro_oat.Linker.dict ->
  Protocol.build_request ->
  (Calibro_oat.Oat_file.t * Protocol.build_stats, Protocol.rejection) result
(** The job body without the socket: parse, build, summarize. With a
    [cache], the parse reads and fills its body tier
    ({!Calibro_cache.Cache.body_memo}), which changes no answer.

    [dict] is the dictionary this daemon serves. A request with
    [rq_dict = None] builds self-contained regardless; [Some want] must
    equal [dict]'s digest exactly or the answer is a typed
    [Dict_mismatch] carrying both digests. *)

val build :
  cache:Calibro_cache.Cache.t option -> ?dict:Calibro_oat.Linker.dict ->
  Protocol.build_request ->
  (Calibro_core.Pipeline.build * Protocol.build_stats, Protocol.rejection)
  result
(** {!build_oat} keeping the whole build record. A relink reports its
    {!Calibro_core.Pipeline.build.b_cache_hits} and serves its config's
    hot methods (the request's merged with its profile's hot set). *)

val build_response :
  cache:Calibro_cache.Cache.t option -> ?dict:Calibro_oat.Linker.dict ->
  Protocol.build_request -> Protocol.response
(** {!build_oat} re-wrapped as the wire-level response (the [Built] oat
    field is the serialized container) — exposed so tests and the load
    generator can produce the exact expected response for a request
    in-process. The daemon answers a built job with the same response,
    through {!respond}. *)
