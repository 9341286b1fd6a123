(* calibrod — the Calibro compilation daemon.

   A long-lived multi-client compilation service: the app-store scenario
   where a continuous stream of releases is compiled on demand, all builds
   sharing one content-addressed compilation cache (the ShareJIT effect).
   Clients speak the length-prefixed binary protocol of
   Calibro_server.Protocol over a Unix-domain socket (--socket) or TCP
   (--tcp, the sharded-fleet transport behind calibro_router);
   calibro_load is the reference client.

   Lifecycle: runs until SIGTERM (or SIGINT), then drains gracefully —
   stops accepting, answers every admitted job, joins the workers, closes
   the listener (removing a Unix socket file), exports --metrics/--trace,
   and exits 0. *)

open Cmdliner
module Server = Calibro_server.Server
module Transport = Calibro_server.Transport
module Obs = Calibro_obs.Obs
module Pgo = Calibro_pgo.Pgo

(* The shared dictionary lives behind an Atomic so SIGHUP can rotate it
   (reload the file) while worker domains and reader threads keep pulling
   the current value per job / per hello. *)
let load_dict path =
  match Calibro_dict.Dict.load path with
  | Ok d -> d
  | Error e ->
    Printf.eprintf "calibrod: --dict %s: %s\n" path e;
    exit 2

let serve socket tcp workers queue_capacity cache_dir recv_timeout deadline_ms
    dict_path shelve_threshold pgo_enabled pgo_threshold pgo_hysteresis metrics
    trace =
  let endpoint =
    match (socket, tcp) with
    | Some path, None -> Transport.Unix_socket { path }
    | None, Some spec -> (
      match Transport.of_string ("tcp:" ^ spec) with
      | Ok ep -> ep
      | Error e ->
        Printf.eprintf "calibrod: %s\n" e;
        exit 2)
    | _ ->
      Printf.eprintf "calibrod: pass exactly one of --socket or --tcp\n";
      exit 2
  in
  let cache =
    match cache_dir with
    | Some dir -> Some (Calibro_cache.Cache.create ~dir ())
    | None -> Lazy.force Calibro_core.Pipeline.env_cache
  in
  let dict = Atomic.make (Option.map load_dict dict_path) in
  (match dict_path with
   | None -> ()
   | Some path ->
     (* SIGHUP = rotate: re-read the file. A rotation that fails to load
        keeps the old dictionary — never serve a half-read image. *)
     Sys.set_signal Sys.sighup
       (Sys.Signal_handle
          (fun _ ->
            match Calibro_dict.Dict.load path with
            | Ok d ->
              Atomic.set dict (Some d);
              Printf.eprintf "calibrod: rotated dictionary to %s\n%!"
                (Calibro_dict.Dict.digest d)
            | Error e ->
              Printf.eprintf
                "calibrod: dictionary rotation failed (%s); keeping the \
                 current one\n%!"
                e)));
  let pgo =
    if not pgo_enabled then None
    else
      Some
        (Pgo.Manager.create
           ~config:
             { Pgo.default_config with
               Pgo.threshold = pgo_threshold;
               hysteresis = max 1 pgo_hysteresis }
           ())
  in
  let cfg =
    { (Server.default_config ~endpoint) with
      Server.workers;
      queue_capacity;
      cache;
      recv_timeout_s = recv_timeout;
      default_deadline_ms = deadline_ms;
      dict =
        (fun () ->
          Option.map Calibro_dict.Dict.linker_dict (Atomic.get dict));
      pgo;
      shelve = shelve_threshold }
  in
  let t =
    try Server.create cfg
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "calibrod: cannot bind %s: %s\n"
        (Transport.to_string endpoint)
        (Unix.error_message e);
      exit 1
  in
  Server.install_sigterm t;
  Printf.eprintf
    "calibrod: serving on %s (%d workers, queue %d, cache %s)\n%!"
    (Transport.to_string (Server.endpoint t))
    workers queue_capacity
    (match cache with
     | Some c ->
       (match Calibro_cache.Cache.dir c with
        | Some d -> d
        | None -> "memory")
     | None -> "off");
  (match Atomic.get dict with
   | Some d ->
     Printf.eprintf "calibrod: serving shared dictionary %s (%d bodies)\n%!"
       (Calibro_dict.Dict.digest d)
       (Calibro_dict.Dict.n_bodies d)
   | None -> ());
  (match shelve_threshold with
   | Some c ->
     Printf.eprintf
       "calibrod: default shelving coverage %.2f (profiled builds only)\n%!" c
   | None -> ());
  (match pgo with
   | Some _ ->
     Printf.eprintf
       "calibrod: PGO drift loop on (threshold %.2f, hysteresis %d)\n%!"
       pgo_threshold (max 1 pgo_hysteresis)
   | None -> ());
  Server.join t;
  let v what = Obs.Counter.value ("server.requests." ^ what) in
  Printf.eprintf
    "calibrod: drained; %d accepted, %d overloaded, %d malformed, %d \
     stalled, %d refused while draining, %d profile reports\n%!"
    (v "accepted") (v "overloaded") (v "malformed") (v "stalled")
    (v "refused_draining") (v "reports");
  (* one summary line per app that reported: pgo.<app>.reports *)
  List.iter
    (fun (name, _) ->
      if
        String.starts_with ~prefix:"pgo." name
        && String.ends_with ~suffix:".reports" name
      then begin
        let app = String.sub name 4 (String.length name - 12) in
        let v what = Obs.Counter.value (Printf.sprintf "pgo.%s.%s" app what) in
        Printf.eprintf
          "calibrod: pgo %s: %d reports, %d drift-detected, %d relinks, \
           %d relink cache hits\n%!"
          app (v "reports") (v "drift_detected") (v "relinks")
          (v "relink_cache_hits")
      end)
    (Obs.Counter.all ());
  Obs.export ~metrics ~trace ();
  exit 0

let cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (created; removed on drain).")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP address to listen on instead of a Unix socket — the \
                 sharded-fleet transport (port 0 binds an ephemeral port, \
                 printed at startup). Exactly one of $(b,--socket) or \
                 $(b,--tcp) is required.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains pulling jobs off the admission queue.")
  in
  let queue_capacity =
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N"
           ~doc:"Admission-queue bound; a full queue answers a typed \
                 Overloaded rejection (backpressure, never buffering).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Content-addressed compilation cache shared by all clients; \
                 identical methods compiled for different releases hit \
                 warm. Overrides \\$(b,CALIBRO_CACHE_DIR); without either, \
                 an in-memory cache is not created and every build is cold.")
  in
  let recv_timeout =
    Arg.(value & opt float 10.0 & info [ "recv-timeout-s" ] ~docv:"S"
           ~doc:"Drop a connection whose client stalls mid-frame longer \
                 than this (0 = wait forever).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "default-deadline-ms" ]
           ~docv:"MS"
           ~doc:"Deadline applied to requests that carry none.")
  in
  let dict_path =
    Arg.(value & opt (some string) None & info [ "dict" ] ~docv:"PATH"
           ~doc:"Store-wide shared dictionary container (calibro_mkdict \
                 build) to link dictionary-relative builds against; its \
                 digest is advertised to Hello handshakes. SIGHUP re-reads \
                 the file (rotation): stale rq_dict requests then get \
                 typed Dict_mismatch answers.")
  in
  let shelve_threshold =
    Arg.(value & opt (some float) None & info [ "shelve-threshold" ]
           ~docv:"COVERAGE"
           ~doc:"Daemon-default shelving coverage applied to Build \
                 requests that carry no rq_shelve of their own: methods \
                 outside the smallest profile prefix covering this \
                 fraction of execution mass are shelved to interpreter \
                 stubs. Only acts on requests that carry a profile; a \
                 request's own threshold wins. Applied at admission, \
                 before the PGO build key, so drift re-links re-derive \
                 the shelve policy from the new profile (unshelving \
                 methods that turned hot).")
  in
  let pgo_enabled =
    Arg.(value & flag & info [ "pgo" ]
           ~doc:"Enable the PGO drift loop: Profile_report frames are \
                 accumulated per app, hot-set drift past the threshold \
                 schedules an incremental re-link through the worker pool \
                 and cache, and subsequent identical Build requests are \
                 served the refreshed OAT. Without this flag every report \
                 is answered with a typed Unknown_app rejection.")
  in
  let pgo_threshold =
    Arg.(value & opt float 0.3 & info [ "pgo-threshold" ] ~docv:"D"
           ~doc:"Drift score (mass-weighted Jaccard distance between the \
                 served and current hot sets, 0..1) above which a report \
                 counts toward the re-link hysteresis.")
  in
  let pgo_hysteresis =
    Arg.(value & opt int 3 & info [ "pgo-hysteresis" ] ~docv:"N"
           ~doc:"Consecutive over-threshold reports required before a \
                 re-link is scheduled; one under-threshold report resets \
                 the streak, so noise never triggers.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the flat metrics JSON (request counters by outcome, \
                 queue-depth gauge, latency histograms, pgo.<app>.* drift \
                 counters) at drain.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON (per-worker lanes with \
                 per-phase pipeline spans) at drain.")
  in
  Cmd.v
    (Cmd.info "calibrod"
       ~doc:"Calibro compilation daemon: concurrent builds over a \
             Unix-domain socket or TCP with admission control, deadlines \
             and graceful drain.")
    Term.(const serve $ socket $ tcp $ workers $ queue_capacity $ cache_dir
          $ recv_timeout $ deadline_ms $ dict_path $ shelve_threshold
          $ pgo_enabled $ pgo_threshold $ pgo_hysteresis $ metrics $ trace)

let () = exit (Cmd.eval cmd)
