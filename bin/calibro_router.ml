(* calibro_router — the fleet front door.

   A thin proxy that consistent-hashes build requests across N calibrod
   shards by app digest (Calibro_server.Router), so each daemon's
   compilation-cache tier stays hot on its own slice of the app store.
   Frames are relayed verbatim; the router never decodes a payload.

   Failure handling: a shard that refuses connections, breaks a frame, or
   answers Draining is marked down and the request fails over to the next
   live shard in ring order with capped exponential backoff; down shards
   are re-probed on a health period and rejoin the ring automatically.
   Clients see a typed Unavailable rejection only when every shard is
   down.

   Lifecycle: runs until SIGTERM (or SIGINT), then drains — stops
   accepting, finishes in-flight relays, prints per-shard
   forwarded/retries/failovers totals, exports --metrics/--trace, and
   exits 0. Rolling-restarting the daemons behind a running router is the
   intended upgrade path. *)

open Cmdliner
module Router = Calibro_server.Router
module Transport = Calibro_server.Transport
module Obs = Calibro_obs.Obs

let parse_endpoint what s =
  match Transport.of_string s with
  | Ok ep -> ep
  | Error e ->
    Printf.eprintf "calibro_router: %s %s\n" what e;
    exit 2

let run listen shards replicas max_attempts backoff_base backoff_cap
    health_period recv_timeout metrics trace =
  if shards = [] then begin
    Printf.eprintf "calibro_router: at least one --shard is required\n";
    exit 2
  end;
  let cfg =
    { (Router.default_config
         ~listen:(parse_endpoint "--listen:" listen)
         ~shards:
           (Array.of_list (List.map (parse_endpoint "--shard:") shards)))
      with
      Router.replicas;
      max_attempts;
      backoff_base_s = backoff_base;
      backoff_cap_s = backoff_cap;
      health_period_s = health_period;
      recv_timeout_s = recv_timeout }
  in
  let t =
    try Router.create cfg
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "calibro_router: cannot bind %s: %s\n" listen
        (Unix.error_message e);
      exit 1
  in
  Router.install_sigterm t;
  Printf.eprintf
    "calibro_router: routing on %s across %d shards (%d virtual nodes \
     each)\n%!"
    (Transport.to_string (Router.endpoint t))
    (Array.length cfg.Router.shards) cfg.Router.replicas;
  Array.iteri
    (fun i ep ->
      Printf.eprintf "  shard %d: %s\n%!" i (Transport.to_string ep))
    cfg.Router.shards;
  Router.join t;
  let v = Obs.Counter.value in
  Printf.eprintf
    "calibro_router: drained; %d requests, %d forwarded, %d unavailable, \
     %d malformed\n%!"
    (v "router.requests.total") (v "router.requests.forwarded")
    (v "router.requests.unavailable") (v "router.requests.malformed");
  Array.iteri
    (fun i _ ->
      let s what = v (Printf.sprintf "router.shard%d.%s" i what) in
      Printf.eprintf
        "  shard %d: forwarded %d, retries %d, failovers %d\n%!" i
        (s "forwarded") (s "retries") (s "failovers"))
    cfg.Router.shards;
  Obs.export ~metrics ~trace ();
  exit 0

let cmd =
  let listen =
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"EP"
           ~doc:"Endpoint to listen on: $(b,unix:PATH) or \
                 $(b,tcp:HOST:PORT) (or the unprefixed conveniences).")
  in
  let shards =
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"EP"
           ~doc:"A calibrod shard endpoint; repeat once per daemon. Ring \
                 positions follow the order given, so keep it stable \
                 across restarts to preserve cache affinity.")
  in
  let replicas =
    Arg.(value & opt int 128 & info [ "replicas" ] ~docv:"V"
           ~doc:"Virtual nodes per shard on the hash ring; more = \
                 smoother key spread, slightly larger ring.")
  in
  let max_attempts =
    Arg.(value & opt int 4 & info [ "max-attempts" ] ~docv:"N"
           ~doc:"Forward attempts per request (across shards) before \
                 answering a typed Unavailable rejection.")
  in
  let backoff_base =
    Arg.(value & opt float 0.01 & info [ "backoff-base-s" ] ~docv:"S"
           ~doc:"First-retry backoff ceiling; doubles per attempt, with \
                 full jitter.")
  in
  let backoff_cap =
    Arg.(value & opt float 0.2 & info [ "backoff-cap-s" ] ~docv:"S"
           ~doc:"Backoff ceiling cap.")
  in
  let health_period =
    Arg.(value & opt float 0.5 & info [ "health-period-s" ] ~docv:"S"
           ~doc:"How often down shards are probed for reconnection \
                 (0 disables the prober).")
  in
  let recv_timeout =
    Arg.(value & opt float 30.0 & info [ "recv-timeout-s" ] ~docv:"S"
           ~doc:"Fail a forward over if the shard stalls mid-response \
                 longer than this (0 = wait forever).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the flat metrics JSON (router.shard<i>.* routing \
                 counters) at drain.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON at drain.")
  in
  Cmd.v
    (Cmd.info "calibro_router"
       ~doc:"Consistent-hash router in front of a calibrod fleet: shard \
             affinity by app digest, failover with backoff, health-check \
             reconnects, rolling drain.")
    Term.(const run $ listen $ shards $ replicas $ max_attempts
          $ backoff_base $ backoff_cap $ health_period $ recv_timeout
          $ metrics $ trace)

let () = exit (Cmd.eval cmd)
