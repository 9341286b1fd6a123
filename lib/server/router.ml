(* The consistent-hash fleet router. See router.mli for the routing,
   failover and observability contracts. *)

module Obs = Calibro_obs.Obs

(* ---- splitmix64 ----------------------------------------------------------

   The same finalizer Parallel.partition draws from: uniform in all 64
   output bits, so ring points and jitter need no further whitening. *)

let splitmix64 (x : int64) : int64 =
  let z = Int64.add x 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* ---- The ring ------------------------------------------------------------ *)

module Ring = struct
  (* Virtual nodes as two parallel arrays sorted by point (unsigned);
     lookup is one binary search. *)
  type t = {
    points : int64 array;
    owners : int array;
    n_shards : int;
    n_replicas : int;
  }

  let shards t = t.n_shards
  let replicas t = t.n_replicas

  (* Point of (shard, replica): splitmix64 over the shard's own mixed id
     xor the replica index — the digest⊕replica scheme, applied to the
     shard's identity. *)
  let point ~shard ~replica =
    splitmix64
      (Int64.logxor
         (splitmix64 (Int64.of_int (shard + 1)))
         (Int64.of_int replica))

  let sorted points_owners =
    let a = Array.copy points_owners in
    Array.sort
      (fun (p1, o1) (p2, o2) ->
        match Int64.unsigned_compare p1 p2 with
        | 0 -> compare o1 o2
        | c -> c)
      a;
    { points = Array.map fst a;
      owners = Array.map snd a;
      n_shards = 0;
      n_replicas = 0 }

  let make ~shards ~replicas =
    if shards <= 0 then invalid_arg "Ring.make: shards must be positive";
    let replicas = max 1 replicas in
    let pts =
      Array.init (shards * replicas) (fun i ->
          let shard = i / replicas and replica = i mod replicas in
          (point ~shard ~replica, shard))
    in
    { (sorted pts) with n_shards = shards; n_replicas = replicas }

  (* Key point of an app digest: its first 8 bytes (MD5 is uniform, but
     splitmix64 again costs nothing and covers shorter fallback keys). *)
  let key_point key =
    let h = ref 0L in
    let n = min 8 (String.length key) in
    for i = 0 to n - 1 do
      h := Int64.logor !h (Int64.shift_left (Int64.of_int (Char.code key.[i])) (8 * i))
    done;
    (* Fold any remaining bytes in so short/long keys both spread. *)
    for i = n to String.length key - 1 do
      h := splitmix64 (Int64.add !h (Int64.of_int (Char.code key.[i])))
    done;
    splitmix64 !h

  (* Index of the first point >= p (unsigned), wrapping to 0. *)
  let successor_ix t p =
    let n = Array.length t.points in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Int64.unsigned_compare t.points.(mid) p < 0 then lo := mid + 1
      else hi := mid
    done;
    if !lo = n then 0 else !lo

  let lookup t key = t.owners.(successor_ix t (key_point key))

  let order t key =
    let n = Array.length t.owners in
    let start = successor_ix t (key_point key) in
    let seen = Array.make t.n_shards false in
    let out = ref [] in
    for i = 0 to n - 1 do
      let o = t.owners.((start + i) mod n) in
      if not seen.(o) then begin
        seen.(o) <- true;
        out := o :: !out
      end
    done;
    List.rev !out

  let remove t i =
    if t.n_shards <= 1 then
      invalid_arg "Ring.remove: cannot empty the ring";
    let keep = ref [] in
    for j = Array.length t.owners - 1 downto 0 do
      if t.owners.(j) <> i then keep := (t.points.(j), t.owners.(j)) :: !keep
    done;
    { (sorted (Array.of_list !keep)) with
      n_shards = t.n_shards - 1;
      n_replicas = t.n_replicas }
end

(* ---- Configuration ------------------------------------------------------- *)

type config = {
  listen : Transport.endpoint;
  shards : Transport.endpoint array;
  replicas : int;
  max_attempts : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  backoff_seed : int;
  health_period_s : float;
  recv_timeout_s : float;
  sleep : float -> unit;
}

let default_config ~listen ~shards =
  { listen;
    shards;
    replicas = 128;
    max_attempts = 4;
    backoff_base_s = 0.01;
    backoff_cap_s = 0.2;
    backoff_seed = 1;
    health_period_s = 0.5;
    recv_timeout_s = 30.0;
    sleep = Thread.delay }

(* ---- Router state -------------------------------------------------------- *)

type shard = { sh_endpoint : Transport.endpoint; sh_up : bool Atomic.t }

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  listen_ep : Transport.endpoint;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  drained : bool Atomic.t;
  drain_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable health_thread : Thread.t option;
  readers : int Atomic.t;
  jitter : int Atomic.t;  (* per-backoff draw index into the seeded stream *)
}

let endpoint t = t.listen_ep
let draining t = Atomic.get t.stop
let request_drain t = Atomic.set t.stop true
let shard_up t i = Atomic.get t.shards.(i).sh_up

let count = Obs.Counter.incr
let count_shard i what = count (Printf.sprintf "router.shard%d.%s" i what)

(* ---- Forwarding ---------------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Capped exponential backoff with full jitter: a uniform draw from
   [0, min(cap, base * 2^(attempt-1))], the decorrelating scheme that
   keeps a thundering herd of retries from re-synchronizing on a shard
   that just came back. The stream is seeded, so a test that injects
   [sleep] sees reproducible delays. *)
let backoff_s t ~attempt =
  let ceiling =
    Float.min t.cfg.backoff_cap_s
      (t.cfg.backoff_base_s *. Float.of_int (1 lsl min 16 (attempt - 1)))
  in
  let draw = Atomic.fetch_and_add t.jitter 1 in
  let bits =
    splitmix64 (Int64.add (Int64.of_int t.cfg.backoff_seed) (Int64.of_int draw))
  in
  let u =
    Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0
  in
  ceiling *. u

(* One forward attempt: connect, send the request frame verbatim, read
   the response frame verbatim. [`Draining] separates "shard is leaving"
   from transport failure only for readability — both fail over. *)
let try_forward ~timeout_s shard payload =
  match Transport.connect shard.sh_endpoint with
  | exception Unix.Unix_error _ -> Error `Io
  | fd -> (
    Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
    if timeout_s > 0.0 then Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    match
      Protocol.write_frame fd payload;
      Protocol.read_frame fd
    with
    | resp when Protocol.response_is_draining resp -> Error `Draining
    | resp -> Ok resp
    | exception Unix.Unix_error _ -> Error `Io
    | exception Protocol.Frame_error _ -> Error `Io)

let respond_quietly client_fd payload =
  match Protocol.write_frame client_fd payload with
  | () -> ()
  | exception Unix.Unix_error _ -> ()
  | exception Protocol.Frame_error _ -> ()

(* Route one request payload: walk the ring order from the key's owner,
   preferring live shards and avoiding the one that just failed; when
   nothing is marked up, probe down shards anyway (a fast ECONNREFUSED if
   they are truly dead, an instant recovery if they are back). *)
let route t client_fd payload =
  let key =
    match Protocol.request_app_digest payload with
    | Some d -> d
    | None -> Calibro_chash.Chash.string payload
  in
  let order = Ring.order t.ring key in
  let pick ~last_failed =
    let not_last i = match last_failed with None -> true | Some l -> i <> l in
    let first pred = List.find_opt pred order in
    match first (fun i -> shard_up t i && not_last i) with
    | Some i -> Some i
    | None -> (
      match first (fun i -> shard_up t i) with
      | Some i -> Some i
      | None -> (
        match first not_last with Some i -> Some i | None -> first (fun _ -> true)))
  in
  let rec go attempt last_failed =
    if attempt > t.cfg.max_attempts then begin
      count "router.requests.unavailable";
      respond_quietly client_fd
        (Protocol.encode_response (Protocol.Rejected Protocol.Unavailable))
    end
    else
      match pick ~last_failed with
      | None ->
        count "router.requests.unavailable";
        respond_quietly client_fd
          (Protocol.encode_response (Protocol.Rejected Protocol.Unavailable))
      | Some i ->
        (match last_failed with
         | Some l when l <> i ->
           (* The request is leaving the failed shard for a different
              one: that is the failover, charged to the shard lost. *)
           count_shard l "failovers"
         | _ -> ());
        if attempt > 1 then t.cfg.sleep (backoff_s t ~attempt:(attempt - 1));
        let shard = t.shards.(i) in
        (match try_forward ~timeout_s:t.cfg.recv_timeout_s shard payload with
         | Ok resp ->
           Atomic.set shard.sh_up true;
           count "router.requests.forwarded";
           count_shard i "forwarded";
           respond_quietly client_fd resp
         | Error (`Io | `Draining) ->
           Atomic.set shard.sh_up false;
           count_shard i "retries";
           go (attempt + 1) (Some i))
  in
  go 1 None

let handle_connection t client_fd =
  count "router.requests.total";
  match Protocol.read_frame client_fd with
  | exception Protocol.Frame_error m ->
    count "router.requests.malformed";
    respond_quietly client_fd
      (Protocol.encode_response (Protocol.Rejected (Protocol.Malformed m)))
  | exception Unix.Unix_error _ -> count "router.requests.malformed"
  | payload -> route t client_fd payload

(* ---- Health probing ------------------------------------------------------ *)

(* A down shard is back when it answers the dictionary handshake. The
   daemon answers [Hello] inline, without a queue slot, so the probe's
   own receive timeout can be short; and the daemon counts it as a
   hello, not as a malformed frame. *)
let probe_timeout_s = 1.0

let check_health t =
  Array.iter
    (fun s ->
      if not (Atomic.get s.sh_up) then begin
        count "router.health_probes";
        match
          try_forward ~timeout_s:probe_timeout_s s (Protocol.encode_hello ())
        with
        | Ok resp -> (
          match Protocol.decode_response resp with
          | Ok (Protocol.Dict_info _) -> Atomic.set s.sh_up true
          | _ -> ())
        | Error _ -> ()
      end)
    t.shards

(* The prober runs on a real clock deliberately — it is a liveness
   mechanism, not request logic — but wakes in short slices so drain
   never waits a full period on it. *)
let health_loop t () =
  let rec sleep_until deadline =
    if not (Atomic.get t.stop) then begin
      let now = Unix.gettimeofday () in
      if now < deadline then begin
        Thread.delay (Float.min 0.05 (deadline -. now));
        sleep_until deadline
      end
    end
  in
  while not (Atomic.get t.stop) do
    sleep_until (Unix.gettimeofday () +. t.cfg.health_period_s);
    if not (Atomic.get t.stop) then check_health t
  done

(* ---- Lifecycle ----------------------------------------------------------- *)

(* A reader thread dying must not kill its connection silently for *any*
   exception: only the I/O and protocol failures a hostile or dying peer
   can cause are expected here, and those are dropped (counted in
   [router.conn_errors]). Everything else — [Out_of_memory],
   [Stack_overflow], [Assert_failure], any programming error — re-raises
   and terminates the reader thread loudly, because swallowing an
   asynchronous exception leaves the process wedged in a state no counter
   explains. *)
let count_as_conn_error = function
  | Unix.Unix_error _ | Protocol.Frame_error _ | Sys_error _ | End_of_file ->
    true
  | _ -> false

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not (Atomic.get t.stop) then loop ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      if Atomic.get t.stop then close_quietly fd
      else begin
        Atomic.incr t.readers;
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> Atomic.decr t.readers)
                 (fun () ->
                   Fun.protect
                     ~finally:(fun () -> close_quietly fd)
                     (fun () ->
                       try handle_connection t fd
                       with e when count_as_conn_error e ->
                         count "router.conn_errors")))
             ())
      end;
      loop ()
  in
  loop ()

let create (cfg : config) =
  if Array.length cfg.shards = 0 then
    invalid_arg "Router.create: no shards configured";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, listen_ep = Transport.listen cfg.listen in
  let t =
    { cfg;
      ring = Ring.make ~shards:(Array.length cfg.shards) ~replicas:cfg.replicas;
      shards =
        Array.map
          (fun ep ->
            { sh_endpoint = ep; sh_up = Atomic.make true })
          cfg.shards;
      listen_ep;
      listen_fd;
      stop = Atomic.make false;
      drained = Atomic.make false;
      drain_lock = Mutex.create ();
      accept_thread = None;
      health_thread = None;
      readers = Atomic.make 0;
      jitter = Atomic.make 0 }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  if cfg.health_period_s > 0.0 then
    t.health_thread <- Some (Thread.create (health_loop t) ());
  t

let drain t =
  Mutex.lock t.drain_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.drain_lock) @@ fun () ->
  if not (Atomic.get t.drained) then begin
    Atomic.set t.stop true;
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (match t.health_thread with Some th -> Thread.join th | None -> ());
    (* In-flight relays run to completion: their shards answer or time
       out, never the router dropping them. *)
    while Atomic.get t.readers > 0 do
      Thread.delay 0.001
    done;
    Transport.close_listener t.listen_ep t.listen_fd;
    Atomic.set t.drained true
  end

let join t =
  while not (Atomic.get t.stop) do
    Thread.delay 0.05
  done;
  drain t

let install_sigterm t =
  let handle = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle
