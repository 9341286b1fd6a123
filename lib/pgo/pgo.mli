(** The PGO drift loop: continuous re-optimization of served builds from
    streamed client profiles (ARTist-style PGO-as-a-service).

    Lifecycle, per app digest (the {!Calibro_chash.Chash} of its dexsim
    text):

    + a normal build registers the app with {!Manager.note_build} — the
      request key and the hot-method set its OAT was built with;
    + each [Profile_report] frame feeds {!Manager.report}: the sample
      profile is merged into a decayed-window accumulator, the
      accumulator's hot set is compared against the served one with the
      mass-weighted Jaccard distance ({!Drift.score}), and once the score
      stays over [threshold] for [hysteresis] consecutive reports the
      manager hands back a relink key — the original request with its
      profile replaced by the merge of the streak's reports;
    + the server queues that key through the ordinary worker pool; the
      worker rebuilds it (warm, through the shared cache) and lands the
      result with {!Manager.relink_done};
    + subsequent [Build] requests for the exact same key are answered
      from the refreshed OAT ({!Manager.refreshed}) — clients converge
      to the drifted profile without ever changing their request.

    Hysteresis makes noise harmless: a report scoring under the threshold
    resets the streak, so only a *sustained* shift relinks, and the
    in-flight latch means at most one relink per detected drift. *)

open Calibro_dex.Dex_ir

type config = {
  threshold : float;
      (** drift score above which a report counts toward the streak *)
  hysteresis : int;
      (** consecutive over-threshold reports required to relink *)
  decay : float;
      (** accumulator aging per report: [acc <- merge (decay acc) r] *)
  coverage : float;  (** hot-set coverage, the paper's 0.8 *)
}

val default_config : config
(** threshold 0.3, hysteresis 3, decay 0.5, coverage 0.8. *)

module Drift : sig
  val score :
    profile:Calibro_profile.Profile.t ->
    served:method_ref list -> current:method_ref list -> float
  (** Mass-weighted Jaccard distance between two hot sets:
      [1 - mass(served ∩ current) / mass(served ∪ current)], each
      method's mass its cycle count in [profile]. 0 for identical sets,
      1 for disjoint ones (with non-zero mass), monotone in displaced
      execution time; an empty union scores 0. *)
end

type app_totals = {
  p_reports : int;
  p_drift_detected : int;
  p_relinks : int;
  p_relink_cache_hits : int;
}

module Manager : sig
  type t
  (** Thread-safe: callable from reader threads and worker domains alike
      (one mutex; no Obs access outside {!mirror_counters}). *)

  val create : ?config:config -> unit -> t

  val config : t -> config

  val note_build : t -> digest:string -> app:string ->
    key:Calibro_core.Request.t -> hot:method_ref list -> unit
  (** A build of [key] (app digest [digest], apk name [app]) completed
      with hot-method set [hot]. First sight registers the app; the same
      key again is a no-op; a different key resets the drift state (the
      old OAT is gone) while keeping the app's tallies. Keys ignore
      [rq_deadline_ms]: the manager clears it on every key it takes and
      on every relink key it hands back. *)

  val refreshed : t -> digest:string -> key:Calibro_core.Request.t ->
    (Calibro_oat.Oat_file.t * float) option
  (** The relinked OAT (and its build seconds) to serve for [key], if a
      relink has landed and [key] is exactly the registered one. *)

  type report_outcome =
    | Unknown
        (** no build of this digest was ever registered here — the
            caller answers a typed [Unknown_app] *)
    | Ack of { drift : float; relink : Calibro_core.Request.t option }
        (** the report was merged; [relink] is [Some key] iff this very
            report crossed the hysteresis and the caller should queue an
            incremental re-link of [key] *)

  val report : t -> digest:string -> profile:Calibro_profile.Profile.t ->
    allow_relink:bool -> report_outcome
  (** Merge one client report. [allow_relink:false] (a draining daemon)
      still merges and scores but never schedules. If the outcome
      carries a relink key the in-flight latch is set: the caller must
      eventually call {!relink_done} or {!relink_failed}. *)

  val relink_done : t -> digest:string -> oat:Calibro_oat.Oat_file.t ->
    build_s:float -> hot:method_ref list -> cache_hits:int -> unit
  (** The queued relink landed: serve [oat] to matching builds, measure
      drift against [hot] from now on, count [cache_hits] method/detect
      cache hits the warm rebuild scored. *)

  val relink_failed : t -> digest:string -> unit
  (** The queued relink could not run (build failure or full/closed
      admission queue): clear the latch so a later drift can retry. *)

  val totals : t -> (string * app_totals) list
  (** Per-app tallies so far, sorted by app name; safe to call live. *)

  val mirror_counters : t -> unit
  (** Add the tallies to the [pgo.<app>.{reports,drift_detected,relinks,
      relink_cache_hits}] Obs counters and zero them. Single-writer
      counter discipline: only call once readers and workers have
      stopped ({!Calibro_server.Server.drain} does). *)
end
