(** Structured observability for the build pipeline.

    Four instrument families:

    - {b spans}: nested monotonic-clock intervals ([pipeline.build] >
      [pipeline.ltbo] > [ltbo.detect] > [ltbo.tree_build] ...), recorded
      per domain and exported as Chrome [trace_event] JSON
      (chrome://tracing / Perfetto) and as per-name aggregates;
    - {b counters}: one process-wide atomic cell per name;
    - {b histograms}: sharded per domain (each domain mutates only its
      own shard, no locks on the hot path) and merged when a snapshot is
      taken;
    - {b gauges}: last-write-wins point values, written under a lock
      (rare writes only).

    Concurrency contract. Counters and gauges are live-safe:
    {!Counter.add}, {!Counter.incr} and {!Counter.value} may run from any
    systhread or domain at any time, and every increment is counted
    exactly once, so a daemon's counters can be read while it serves.
    Spans and histograms are not: a shard has a single writer, the
    domain that created it, and it must not be shared by systhreads of
    that domain. Their snapshot functions ({!events},
    {!Histogram.summary}, {!metrics_json}, {!trace_json}, {!reset}) read
    every shard and must run when no parallel section is running: no
    [Calibro_core.Parallel.map] call in flight and no server worker
    domain live. The helper domains of [Parallel.map]'s pool outlive the
    calls, but a parked helper writes nothing, and [map] returns only
    after every helper it claimed has finished. A build returns only
    after its parallel sections, so callers that snapshot between builds
    (the bench harness, the fuzz driver, tests) satisfy this by
    construction.

    Recording is always on; the cost of a span is two clock reads and a
    cons. Per-domain buffers are bounded: past the cap events are dropped
    (and counted in [dropped_events] of {!metrics_json}) rather than
    growing without bound under long fuzz runs. *)

type args = (string * Json.t) list

val span : ?cat:string -> ?args:(unit -> args) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a completed span around it — also
    when [f] raises. [?cat] becomes the Chrome trace category (default
    ["calibro"]); [?args] is evaluated once, at close. *)

module Counter : sig
  val add : string -> int -> unit
  val incr : string -> unit

  val value : string -> int
  (** The current total; 0 if never touched. Safe to call while other
      threads and domains add. *)

  val all : unit -> (string * int) list
  (** Every counter touched since the last {!reset}, sorted by name. *)
end

module Gauge : sig
  val set : string -> float -> unit
  val value : string -> float option
end

module Histogram : sig
  val observe : string -> float -> unit

  type summary = {
    count : int;
    min : float;
    max : float;
    mean : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  val summary : string -> summary option
  (** Merged over all domain shards; [None] if never observed.
      Percentiles are nearest-rank over the retained samples (per-shard
      retention is capped; [count], [min], [max] and [mean] are exact). *)
end

(** {2 Snapshots} *)

type span_event = {
  ev_name : string;
  ev_cat : string;
  ev_tid : int;  (** id of the domain that recorded the span *)
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;  (** nesting depth within its domain at open time *)
  ev_args : args;
}

val events : unit -> span_event list
(** Every recorded span, across all domains, sorted by start time. *)

val reset : unit -> unit
(** Clear all recorded events, counters, histograms and gauges. An add
    racing the reset may land in the discarded counter cell. *)

val metrics_json : ?extra:(string * Json.t) list -> unit -> Json.t
(** The flat metrics document CI consumes: [counters], [gauges],
    [histograms] (summaries), [spans] (per-name count/total/mean/max
    seconds) and [dropped_events]. [?extra] fields are appended at the
    top level (the bench harness adds its per-app section there). *)

val trace_json : unit -> Json.t
(** Chrome [trace_event] JSON: an object with a [traceEvents] array of
    complete ("ph":"X") events, timestamps in microseconds relative to
    the first event recorded since program start. *)

val write_file : string -> Json.t -> unit
(** Pretty-print a document to [path] (creating or truncating it). *)

val export :
  ?extra:(string * Json.t) list -> metrics:string option ->
  trace:string option -> unit -> unit
(** The one obs-export code path every entry point (calibroc, calibrod,
    calibro_fuzz, bench) shares: write {!metrics_json} (with [?extra]
    appended) to the [metrics] path and {!trace_json} to the [trace]
    path, skipping whichever is [None]. Being a snapshot, this must run
    when no parallel section is running (see above). *)
