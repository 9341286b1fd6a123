(** calibrod's connection and lifecycle layer: an accept loop on a
    {!Transport.endpoint} (Unix-domain socket or TCP) in front of the
    admission {!Queue} and the {!Worker} pool.

    Threading model: the accept loop runs on a background thread of the
    creating domain; each accepted connection gets a short-lived reader
    thread that reads and decodes one request frame, then either admits a
    job (handing the connection to a worker domain) or answers a typed
    rejection itself ([Overloaded], [Malformed], [Draining]). CPU-bound
    work only ever runs on the worker domains.

    Observability: every event increments its {!Calibro_obs.Obs}
    counter where it happens, and counters are safe to read live. Reader
    threads count admissions and inline answers in
    [server.requests.{accepted,overloaded,malformed,stalled,
    refused_draining,hello,reports}]; workers count each admitted job's
    outcome in [server.jobs.*]. Every admitted job ends in exactly one
    outcome, so after the drain [server.requests.accepted] equals the sum
    of [server.jobs.{ok,cancelled,deadline,parse_error,build_error,
    dict_mismatch,internal_error,rejected,handler_error}]. Spans and
    histograms are recorded on the worker domains only. The queue depth
    is exported live through the [server.queue_depth] gauge.

    Graceful drain ({!drain}, or SIGTERM via {!install_sigterm} +
    {!join}): stop accepting, answer nothing new, finish every admitted
    job, join the workers, close the listener (removing a Unix socket
    file) — then return, so the caller can exit 0. *)

type config = {
  endpoint : Transport.endpoint;
      (** where to listen; [Tcp { port = 0; _ }] binds an ephemeral port,
          resolved via {!endpoint} *)
  workers : int;
  queue_capacity : int;
  cache : Calibro_cache.Cache.t option;
      (** shared compilation cache; [None] = every build cold *)
  recv_timeout_s : float;
      (** how long a client may stall mid-frame before its connection is
          dropped; [0.] = wait forever *)
  default_deadline_ms : int option;
      (** applied to requests that carry no deadline of their own *)
  dict : unit -> Calibro_oat.Linker.dict option;
      (** the store-wide shared dictionary this daemon links
          dictionary-relative builds against. Read per [Hello] and per
          dispatched job, so swapping what the closure returns rotates
          the dictionary live: subsequent [Hello]s see the new digest and
          stale [rq_dict] requests get typed [Dict_mismatch] answers. *)
  pgo : Calibro_pgo.Pgo.Manager.t option;
      (** the PGO drift loop. With a manager, [Profile_report] frames
          are merged and scored inline on the reader thread (answered
          even while draining, like [Hello]); a report that crosses the
          hysteresis queues a {!Worker.relink_job} through the ordinary
          admission queue, and subsequent identical [Build] requests are
          served the refreshed OAT. [None] answers every report with a
          typed [Unknown_app]. *)
  shelve : float option;
      (** daemon-default shelving coverage ([--shelve-threshold]):
          applied at admission to [Build] requests whose [rq_shelve] is
          [None] — like the default deadline, and before the PGO build
          key is taken, so drift relinks of a default-shelved build
          re-derive the shelve policy from the new profile. A request
          that carries its own threshold wins; shelving still requires a
          profile to act on (see {!Protocol.build_request.rq_shelve}). *)
}

val default_config : endpoint:Transport.endpoint -> config
(** 2 workers, capacity 64, no cache, 10 s receive timeout, no default
    deadline, no dictionary, no PGO, no shelving. *)

type t

val create : config -> t
(** Bind the endpoint (replacing a stale Unix-socket file), start the
    workers and the accept loop. Also sets [SIGPIPE] to ignore — a
    vanished client must surface as [EPIPE], not kill the daemon.
    @raise Unix.Unix_error if the endpoint cannot be bound. *)

val request_drain : t -> unit
(** Flag the server to drain. Async-signal-safe (one atomic store); the
    actual drain is performed by {!join} or {!drain}. *)

val draining : t -> bool

val drain : t -> unit
(** Perform the graceful drain described above. Blocks until every
    admitted job has been answered and all workers have exited.
    Idempotent; concurrent callers block until the first finishes. *)

val join : t -> unit
(** Block until {!request_drain} is called (typically from the SIGTERM
    handler), then {!drain}. The daemon's main loop. *)

val install_sigterm : t -> unit
(** Route SIGTERM (and SIGINT) to {!request_drain} on this server. *)

(** {2 Introspection} *)

val endpoint : t -> Transport.endpoint
(** The resolved listening endpoint — for a TCP port-0 bind, the
    ephemeral port the kernel actually picked. *)
