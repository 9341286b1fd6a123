(** The fleet router: a thin proxy that consistent-hashes requests across
    N calibrod shards by app digest, so each daemon's cache tier stays
    hot on its own slice of the app store (the ShareJIT affinity
    argument, applied fleet-wide).

    The router never decodes a payload it relays: it reads one request
    frame from the client, peeks the shard-affinity key
    ({!Protocol.request_app_digest}), forwards the frame verbatim to the
    owning shard, and relays the response frame verbatim back. CPU cost
    per request is one digest and two frame copies.

    Failure semantics: a shard that refuses a connection, breaks a frame
    mid-stream, times out, or answers [Rejected Draining] is marked down
    and the request is re-routed to the next live shard in ring order,
    with capped exponential backoff plus jitter between attempts
    ([sleep] is injectable so tests never wait on a real clock). A typed
    [Rejected Unavailable] is surfaced only when every shard is down and
    the retry budget is exhausted. Down shards are re-probed by a
    background health thread (and on the retry path), so a restarted or
    rolling-drained daemon rejoins the ring without router restarts.

    Observability: {!Calibro_obs.Obs} counters, incremented at the event
    and safe to read live:
    - [router.requests.total]: client frames read;
    - [router.requests.forwarded]: responses relayed (the sum of the
      shards' [forwarded]);
    - [router.requests.unavailable]: answered [Rejected Unavailable];
    - [router.requests.malformed]: client frames that were not frames;
    - [router.conn_errors]: connections dropped by an expected I/O or
      protocol exception escaping the reader ({!count_as_conn_error});
    - [router.shard<i>.forwarded]: responses relayed from shard [i];
    - [router.shard<i>.retries]: forward attempts shard [i] failed;
    - [router.shard<i>.failovers]: requests re-routed off shard [i].

    A frame read is answered once unless its connection is dropped, so
    once the readers are done [total] = [forwarded] + [unavailable] +
    [malformed] + the drops among [conn_errors]. *)

(** The consistent-hash ring, exposed pure for property tests: uniform
    key spread and minimal disruption on shard removal are asserted over
    this exact structure, not a model of it. *)
module Ring : sig
  type t

  val make : shards:int -> replicas:int -> t
  (** A ring over shard indices [0..shards-1], each contributing
      [replicas] virtual nodes at splitmix64-derived points (mixing the
      shard id with the replica index, like [Parallel.partition]'s
      stream). Deterministic: same shape, same ring, on every host. *)

  val shards : t -> int
  val replicas : t -> int

  val lookup : t -> string -> int
  (** Owning shard of a key (an app digest): the shard of the first
      virtual node at or clockwise-after the key's splitmix64 point. *)

  val order : t -> string -> int list
  (** All shard indices in ring order starting at the owner — the
      failover order. Head is [lookup]; every shard appears once. *)

  val remove : t -> int -> t
  (** The ring without shard [i]'s virtual nodes. Keys owned by other
      shards keep their owner (the minimal-disruption property the tests
      assert); keys owned by [i] redistribute to ring successors. *)
end

type config = {
  listen : Transport.endpoint;
  shards : Transport.endpoint array;
  replicas : int;  (** virtual nodes per shard (default 128) *)
  max_attempts : int;
      (** forward attempts per request across shards before answering
          [Unavailable] (default 4) *)
  backoff_base_s : float;  (** first retry delay (default 0.01) *)
  backoff_cap_s : float;  (** retry delay ceiling (default 0.2) *)
  backoff_seed : int;  (** jitter stream seed; deterministic per seed *)
  health_period_s : float;
      (** background probe period for down shards; [0.] disables the
          thread (tests drive {!check_health} explicitly) *)
  recv_timeout_s : float;
      (** how long a shard may stall mid-response before the attempt is
          failed over; [0.] = wait forever *)
  sleep : float -> unit;
      (** called for backoff waits — injectable so failover tests run on
          a fake clock *)
}

val default_config :
  listen:Transport.endpoint -> shards:Transport.endpoint array -> config

type t

val create : config -> t
(** Bind the listening endpoint and start the accept and health threads.
    All shards start marked up; the first failed forward marks them down.
    @raise Invalid_argument if [shards] is empty.
    @raise Unix.Unix_error if the endpoint cannot be bound. *)

val endpoint : t -> Transport.endpoint
(** Resolved listening endpoint (a TCP port-0 bind filled in). *)

val shard_up : t -> int -> bool
val check_health : t -> unit
(** One probe pass: try to connect to every down shard, marking the
    reachable ones up again. The background thread calls this every
    [health_period_s]; tests call it directly. *)

(** {2 Lifecycle} — same contract as {!Server}. *)

val request_drain : t -> unit
val draining : t -> bool

val drain : t -> unit
(** Stop accepting, let in-flight relays finish, close the listener.
    Idempotent. *)

val join : t -> unit
val install_sigterm : t -> unit

(** {2 Introspection} *)

val count_as_conn_error : exn -> bool
(** The reader-thread drop policy: [true] for the I/O and protocol
    exceptions a peer can cause ([Unix.Unix_error],
    [Protocol.Frame_error], [Sys_error], [End_of_file]) — those drop the
    connection and tick [router.conn_errors]. [false] for everything
    else ([Out_of_memory], [Stack_overflow], [Assert_failure], any
    programming error): those re-raise out of the reader thread instead
    of being silently swallowed. *)
