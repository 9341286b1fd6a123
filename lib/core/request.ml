(* One build request: everything that names a build, as it travels on the
   wire (Calibro_server.Protocol re-exports this record as
   [build_request]) and as the PGO drift loop keys it (Calibro_pgo.Pgo).
   It lives here, below both, so neither has to mirror it. *)

type t = {
  rq_config : Config.t;
      (** Full evaluation configuration; [hot_methods] travels inline. *)
  rq_dexsim : string;  (** the application, in .dexsim text *)
  rq_profile : string option;
      (** optional simpleperf-style profile text; its hot set is merged
          into [rq_config.hot_methods] server-side *)
  rq_deadline_ms : int option;
      (** per-job deadline, relative to admission; a job that cannot be
          dispatched (or finished) in time is answered [`Deadline_exceeded].
          The only field that does not change what is built: the PGO
          manager clears it before keying. *)
  rq_dict : string option;
      (** digest of the store-wide shared dictionary the build must link
          against ({!Calibro_dict.Dict.digest}); the daemon answers
          [Dict_mismatch] unless it serves exactly that dictionary.
          [None] requests a self-contained build (the daemon's ambient
          dictionary, if any, is not used). *)
  rq_shelve : float option;
      (** profile coverage threshold for method shelving: methods outside
          the accumulated profile's hot set at this coverage are compiled
          to shelf fault stubs ({!Calibro_shelve.Shelve}). Requires a
          profile — [rq_profile] or the daemon's PGO accumulator — to
          derive the warm set from; without one the build is unshelved.
          [None] (or the daemon's [--shelve-threshold] default, applied
          at admission when this is [None]) disables shelving. A relink
          keeps it and carries the drift streak's profile, so the worker
          re-derives the shelving plan from the new regime. *)
}
