(* bench serve: throughput and latency of the calibrod service path.

   An in-process server (2 worker domains, shared in-memory cache) is
   driven by concurrent client threads over a real Unix-domain socket —
   the full wire path: encode, frame, admit, queue, build, respond. The
   workload is release mutants of the demo app with a small seed pool, so
   the run mixes cold builds with ShareJIT warm hits, like the daemon's
   steady state.

   Correctness is measured before speed: every served OAT is byte-compared
   against an in-process build of the same request (computed up front,
   before the server starts). A mismatch fails `bench serve` and the gate
   unconditionally — a fast wrong answer is not a result.

   The committed baseline keeps a throughput floor (measured/3) and a p95
   latency envelope (measured*3); the gate fails below 0.75x the floor or
   above 1.25x the envelope, same slack discipline as the build-time
   envelope. *)

open Calibro_core
open Calibro_workload
module Server = Calibro_server.Server
module Client = Calibro_server.Client
module Worker = Calibro_server.Worker
module Protocol = Calibro_server.Protocol
module Router = Calibro_server.Router
module Transport = Calibro_server.Transport
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json
module Obs = Calibro_obs.Obs
module Chash = Calibro_chash.Chash

let clients = 4
let requests_per_client = 8
let seed_pool = 4

type result = {
  sv_requests : int;
  sv_built : int;
  sv_rejected : int;
  sv_errors : int;
  sv_throughput : float;  (* built responses per second of loaded wall time *)
  sv_p95_s : float;
  sv_byte_ok : bool;
  sv_alloc_per_build : float;
      (* GC-visible bytes allocated per served build, summed over the
         worker domains ("server.built.alloc_bytes" counter delta / built).
         Informational — machine-independent enough to eyeball, too
         allocation-model-dependent to gate on. *)
}

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The shared workload: [seed_pool] release mutants of the demo app, with
   expected bytes per slot computed before any server exists (the
   snapshot-free window) through the same build path calibroc uses. *)
let workload () =
  let base = (Appgen.generate Apps.demo).Appgen.app in
  let config =
    match Config.of_string "pl2" with Ok c -> c | Error e -> failwith e
  in
  let slots =
    Array.init seed_pool (fun i ->
        let apk, _ = Mutate.mutate ~seed:(i + 1) base in
        { Protocol.rq_config = config;
          rq_dexsim = Calibro_dex.Dex_text.to_string apk;
          rq_profile = None;
          rq_deadline_ms = None;
          rq_dict = None;
          rq_shelve = None })
  in
  let expected =
    Array.map
      (fun rq ->
        match Worker.build_response ~cache:None rq with
        | Protocol.Built { oat; _ } -> oat
        | Protocol.Rejected rej ->
          failwith ("serve bench workload does not build: "
                    ^ Protocol.rejection_to_string rej)
        | Protocol.Dict_info _ | Protocol.Report_ack _ ->
          failwith "serve bench workload answered a non-build response")
      slots
  in
  (slots, expected)

(* Drive [n_clients] threads through [endpoint], each issuing
   [requests_per_client] requests over the cycling slot pool, byte-checking
   every Built response. Returns (built, rejected, errors, mismatches,
   latencies, wall_s); bumps [progress] per finished request so a
   controller thread can trigger mid-run events (the fleet kill). *)
let drive ~endpoint ~n_clients ~slots ~expected ?progress () =
  let total = n_clients * requests_per_client in
  let latencies = Array.make total 0.0 in
  let built = Atomic.make 0
  and rejected = Atomic.make 0
  and errors = Atomic.make 0
  and mismatches = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  let client_thread c () =
    for r = 0 to requests_per_client - 1 do
      let ix = (c * requests_per_client) + r in
      let slot = ix mod seed_pool in
      let t = Clock.now_ns () in
      (match Client.request ~endpoint slots.(slot) with
       | Ok (Protocol.Built { oat; _ }) ->
         latencies.(ix) <- Clock.since_s t;
         Atomic.incr built;
         if not (String.equal oat expected.(slot)) then Atomic.incr mismatches
       | Ok (Protocol.Rejected _) -> Atomic.incr rejected
       | Ok (Protocol.Dict_info _ | Protocol.Report_ack _) ->
         Atomic.incr errors
       | Error _ -> Atomic.incr errors);
      Option.iter Atomic.incr progress
    done
  in
  let threads =
    List.init n_clients (fun c -> Thread.create (client_thread c) ())
  in
  List.iter Thread.join threads;
  let wall_s = Clock.since_s t0 in
  let lats =
    Array.of_list (List.filter (fun l -> l > 0.0) (Array.to_list latencies))
  in
  Array.sort compare lats;
  ( Atomic.get built, Atomic.get rejected, Atomic.get errors,
    Atomic.get mismatches, lats, wall_s )

let measure () : result =
  let slots, expected = workload () in
  let socket =
    Printf.sprintf "%s/calibro-bench-%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let endpoint = Transport.Unix_socket { path = socket } in
  let server =
    Server.create
      { (Server.default_config ~endpoint) with
        Server.cache = Some (Calibro_cache.Cache.create ()) }
  in
  let alloc0 = Obs.Counter.value "server.built.alloc_bytes" in
  let built, rejected, errors, mismatches, lats, wall_s =
    drive ~endpoint ~n_clients:clients ~slots ~expected ()
  in
  Server.request_drain server;
  Server.drain server;
  let alloc = Obs.Counter.value "server.built.alloc_bytes" - alloc0 in
  { sv_requests = clients * requests_per_client;
    sv_built = built;
    sv_rejected = rejected;
    sv_errors = errors;
    sv_throughput = float_of_int built /. wall_s;
    sv_p95_s = percentile lats 0.95;
    sv_byte_ok = mismatches = 0 && errors = 0;
    sv_alloc_per_build =
      (if built = 0 then 0.0 else float_of_int alloc /. float_of_int built) }

let report r =
  Printf.printf
    "  %d requests (%d clients): %d built, %d rejected, %d errors\n"
    r.sv_requests clients r.sv_built r.sv_rejected r.sv_errors;
  Printf.printf "  throughput %.2f builds/s  p95 latency %.3fs  bytes %s\n%!"
    r.sv_throughput r.sv_p95_s
    (if r.sv_byte_ok then "identical to in-process builds" else "DIFFER");
  Printf.printf "  gc alloc %.0f bytes/served build\n%!" r.sv_alloc_per_build

let failures r =
  Gate.violated
    [ (r.sv_byte_ok,
       "serve: served OATs are not byte-identical to in-process builds") ]

let section r =
  Json.Obj
    [ ("requests", Json.Int r.sv_requests);
      ("built", Json.Int r.sv_built);
      ("throughput_builds_per_s", Json.Float r.sv_throughput);
      ("p95_latency_s", Json.Float r.sv_p95_s);
      ("byte_equal", Json.Bool r.sv_byte_ok);
      ("alloc_bytes_per_build", Json.Float r.sv_alloc_per_build) ]

(* ---- bench fleet: 3 daemons behind the consistent-hash router ----------- *)

(* Same workload, three TCP servers behind a Router, twice the client
   concurrency — and one daemon is gracefully drained mid-run to force at
   least one failover, so the aggregate numbers (and the byte check) are
   measured across a shard loss, not just the sunny day. The drained
   shard is chosen as the ring owner of slot 0's key, so post-kill
   requests are guaranteed to need re-routing. *)

let fleet_shards = 3
let fleet_clients = 6

type fleet_result = {
  fl_requests : int;
  fl_built : int;
  fl_rejected : int;
  fl_errors : int;
  fl_throughput : float;
  fl_p95_s : float;
  fl_byte_ok : bool;
  fl_failovers : int;  (* sum of router.shard<i>.failovers *)
}

let router_failovers () =
  List.init fleet_shards (fun i ->
      Obs.Counter.value (Printf.sprintf "router.shard%d.failovers" i))
  |> List.fold_left ( + ) 0

let fleet_measure () : fleet_result =
  let slots, expected = workload () in
  let servers =
    Array.init fleet_shards (fun _ ->
        Server.create
          { (Server.default_config
               ~endpoint:(Transport.Tcp { host = "127.0.0.1"; port = 0 }))
            with
            Server.cache = Some (Calibro_cache.Cache.create ()) })
  in
  let shard_eps = Array.map Server.endpoint servers in
  let socket =
    Printf.sprintf "%s/calibro-bench-router-%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let router =
    Router.create
      (Router.default_config
         ~listen:(Transport.Unix_socket { path = socket })
         ~shards:shard_eps)
  in
  (* The mid-run kill: once half the requests have completed, drain the
     shard that owns slot 0's routing key. Every client still has all four
     slots ahead of it at that point, so post-drain traffic must fail over
     off the dead shard. *)
  let victim =
    Router.Ring.lookup
      (Router.Ring.make ~shards:fleet_shards ~replicas:128)
      (Chash.string slots.(0).Protocol.rq_dexsim)
  in
  let progress = Atomic.make 0 in
  let total = fleet_clients * requests_per_client in
  let failovers0 = router_failovers () in
  let killer =
    Thread.create
      (fun () ->
        while Atomic.get progress < total / 2 do
          Thread.delay 0.001
        done;
        Server.request_drain servers.(victim);
        Server.drain servers.(victim))
      ()
  in
  let built, rejected, errors, mismatches, lats, wall_s =
    drive
      ~endpoint:(Router.endpoint router)
      ~n_clients:fleet_clients ~slots ~expected ~progress ()
  in
  Thread.join killer;
  Router.request_drain router;
  Router.drain router;
  Array.iteri
    (fun i s -> if i <> victim then (Server.request_drain s; Server.drain s))
    servers;
  let failovers = router_failovers () - failovers0 in
  { fl_requests = total;
    fl_built = built;
    fl_rejected = rejected;
    fl_errors = errors;
    fl_throughput = float_of_int built /. wall_s;
    fl_p95_s = percentile lats 0.95;
    fl_byte_ok = mismatches = 0 && errors = 0 && built = total;
    fl_failovers = failovers }

let fleet_report r =
  Printf.printf
    "  %d requests (%d clients, %d shards, 1 drained mid-run): %d built, %d \
     rejected, %d errors\n"
    r.fl_requests fleet_clients fleet_shards r.fl_built r.fl_rejected
    r.fl_errors;
  Printf.printf
    "  throughput %.2f builds/s  p95 latency %.3fs  failovers %d  bytes %s\n%!"
    r.fl_throughput r.fl_p95_s r.fl_failovers
    (if r.fl_byte_ok then "identical to in-process builds" else "DIFFER")

(* The mid-run drain must have exercised a failover, or the run proved
   nothing about failure handling. *)
let fleet_failures r =
  Gate.violated
    [ (r.fl_byte_ok,
       "fleet: served OATs are not byte-identical to in-process builds \
        (under a mid-run shard drain)");
      (r.fl_failovers > 0, "fleet: mid-run shard drain exercised no failover")
    ]

let fleet_section r =
  Json.Obj
    [ ("requests", Json.Int r.fl_requests);
      ("built", Json.Int r.fl_built);
      ("throughput_builds_per_s", Json.Float r.fl_throughput);
      ("p95_latency_s", Json.Float r.fl_p95_s);
      ("failovers", Json.Int r.fl_failovers);
      ("byte_equal", Json.Bool r.fl_byte_ok) ]
