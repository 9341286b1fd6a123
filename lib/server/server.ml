(* The accept loop and lifecycle. See server.mli for the threading and
   drain contracts. *)

module Obs = Calibro_obs.Obs
module Clock = Calibro_obs.Clock
module Pgo = Calibro_pgo.Pgo

type config = {
  endpoint : Transport.endpoint;
  workers : int;
  queue_capacity : int;
  cache : Calibro_cache.Cache.t option;
  recv_timeout_s : float;
  default_deadline_ms : int option;
  dict : unit -> Calibro_oat.Linker.dict option;
  pgo : Pgo.Manager.t option;
  shelve : float option;
      (* daemon-default shelving coverage, applied at admission to builds
         that did not choose for themselves (rq_shelve = None) *)
}

let default_config ~endpoint =
  { endpoint;
    workers = 2;
    queue_capacity = 64;
    cache = None;
    recv_timeout_s = 10.0;
    default_deadline_ms = None;
    dict = (fun () -> None);
    pgo = None;
    shelve = None }

type t = {
  cfg : config;
  endpoint : Transport.endpoint;  (* resolved: a TCP port-0 bind filled in *)
  listen_fd : Unix.file_descr;
  queue : Worker.job Queue.t;
  pool : Worker.pool;
  stop : bool Atomic.t;  (* drain requested *)
  drained : bool Atomic.t;
  drain_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  readers : int Atomic.t;  (* live connection-reader threads *)
  next_id : int Atomic.t;
}

let endpoint t = t.endpoint
let draining t = Atomic.get t.stop
let request_drain t = Atomic.set t.stop true

(* ---- Connection handling ------------------------------------------------ *)

(* One reader thread per accepted connection: read one frame, decode,
   admit or reject. It counts into [server.requests.*] as it goes; it
   records no span or histogram (those shards belong to one thread). *)
let count what = Obs.Counter.incr ("server.requests." ^ what)

let handle_connection t fd =
  if t.cfg.recv_timeout_s > 0.0 then
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.recv_timeout_s;
  let reject what rejection =
    count what;
    ignore (Worker.respond fd (Protocol.Rejected rejection))
  in
  match Protocol.read_frame fd with
  | exception Protocol.Frame_error m ->
    (* Bad magic / oversized / cut mid-frame. Try to say so — the peer is
       often already gone, which respond absorbs. *)
    reject "malformed" (Protocol.Malformed m)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* The client stalled past the receive timeout. *)
    count "stalled";
    Worker.(ignore (respond fd (Protocol.Rejected Protocol.Deadline_exceeded)))
  | exception Unix.Unix_error _ ->
    count "stalled";
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | payload -> (
    match Protocol.decode_request payload with
    | Error m -> reject "malformed" (Protocol.Malformed m)
    | Ok Protocol.Hello ->
      (* The dictionary handshake is answered inline: no compile, no
         queue slot, and it works even while draining (a client must be
         able to learn the digest to decide where to retry). *)
      count "hello";
      ignore
        (Worker.respond fd
           (Protocol.Dict_info
              { di_digest =
                  Option.map
                    (fun (d : Calibro_oat.Linker.dict) ->
                      d.Calibro_oat.Linker.dct_digest)
                    (t.cfg.dict ()) }))
    | Ok (Protocol.Report { pr_app; pr_profile }) -> (
      (* PGO feedback is answered inline, like Hello, and even while
         draining: merging a report is cheap and side-effect-free. Only
         the *scheduling* of a relink needs live workers, so a draining
         daemon merges but never queues. *)
      match t.cfg.pgo with
      | None ->
        (* No PGO manager: no app was ever registered, by definition. *)
        count "reports";
        ignore
          (Worker.respond fd
             (Protocol.Rejected (Protocol.Unknown_app pr_app)))
      | Some m -> (
        match Calibro_profile.Profile.of_string pr_profile with
        | Error e ->
          reject "malformed" (Protocol.Parse_error ("profile: " ^ e))
        | Ok profile -> (
          count "reports";
          let draining = Atomic.get t.stop in
          match
            Pgo.Manager.report m ~digest:pr_app ~profile
              ~allow_relink:(not draining)
          with
          | Pgo.Manager.Unknown ->
            ignore
              (Worker.respond fd
                 (Protocol.Rejected (Protocol.Unknown_app pr_app)))
          | Pgo.Manager.Ack { drift; relink } ->
            let scheduled =
              match relink with
              | None -> false
              | Some key -> (
                match
                  Queue.try_push t.queue
                    (Worker.Relink { r_digest = pr_app; r_request = key })
                with
                | Queue.Pushed -> true
                | Queue.Full | Queue.Closed ->
                  (* The relink never ran: release the manager's
                     in-flight latch so a later drift can retry. *)
                  Pgo.Manager.relink_failed m ~digest:pr_app;
                  false)
            in
            ignore
              (Worker.respond fd
                 (Protocol.Report_ack
                    { ra_drift = drift; ra_relink = scheduled })))))
    | Ok (Protocol.Build rq) ->
      if Atomic.get t.stop then reject "refused_draining" Protocol.Draining
      else begin
        (* Admission applies the daemon's shelving default to requests
           that did not choose for themselves — like the default
           deadline, and before the PGO key is taken, so relinks of a
           default-shelved build re-derive the same shelve policy. *)
        let rq =
          match (rq.Protocol.rq_shelve, t.cfg.shelve) with
          | None, (Some _ as d) -> { rq with Protocol.rq_shelve = d }
          | _ -> rq
        in
        let deadline_ms =
          match rq.Protocol.rq_deadline_ms with
          | Some _ as d -> d
          | None -> t.cfg.default_deadline_ms
        in
        let now = Clock.now_ns () in
        let job =
          Worker.Client
            { Worker.j_id = Atomic.fetch_and_add t.next_id 1;
              j_fd = fd;
              j_request = rq;
              j_deadline_ns =
                Option.map
                  (fun ms -> Int64.add now (Int64.of_int (ms * 1_000_000)))
                  deadline_ms;
              j_accepted_ns = now }
        in
        match Queue.try_push t.queue job with
        | Queue.Pushed -> count "accepted"
        | Queue.Full -> reject "overloaded" Protocol.Overloaded
        | Queue.Closed -> reject "refused_draining" Protocol.Draining
      end)

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not (Atomic.get t.stop) then loop ()
    | exception Unix.Unix_error _ ->
      (* The listening socket was shut down (drain) or is otherwise
         unusable; either way accepting is over. *)
      ()
    | fd, _ ->
      (* Even a connection that raced the drain flag gets a reader: Hello
         and Report are answered inline while draining (handle_connection
         merges, never schedules), and only Builds are refused — typed,
         after reading the frame, so the client learns *why*. *)
      Atomic.incr t.readers;
      ignore
        (Thread.create
           (fun () ->
             Fun.protect
               ~finally:(fun () -> Atomic.decr t.readers)
               (fun () ->
                 try handle_connection t fd
                 with _ ->
                   (* A reader must never take the accept loop down. *)
                   (try Unix.close fd with Unix.Unix_error _ -> ())))
           ());
      loop ()
  in
  loop ()

(* ---- Lifecycle ---------------------------------------------------------- *)

let create (cfg : config) =
  (* A vanished client must surface as EPIPE on write, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, endpoint = Transport.listen cfg.endpoint in
  let queue =
    Queue.create ~gauge:"server.queue_depth" ~capacity:cfg.queue_capacity ()
  in
  let pool =
    Worker.start ~workers:cfg.workers ~cache:cfg.cache ~dict:cfg.dict
      ?pgo:cfg.pgo ~queue ()
  in
  let t =
    { cfg;
      endpoint;
      listen_fd;
      queue;
      pool;
      stop = Atomic.make false;
      drained = Atomic.make false;
      drain_lock = Mutex.create ();
      accept_thread = None;
      readers = Atomic.make 0;
      next_id = Atomic.make 0 }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let drain t =
  Mutex.lock t.drain_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.drain_lock) @@ fun () ->
  if not (Atomic.get t.drained) then begin
    Atomic.set t.stop true;
    (* Wake the accept loop: shutdown on a listening socket makes a
       blocked accept(2) return with an error. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* Let in-flight reader threads finish admitting or rejecting. *)
    while Atomic.get t.readers > 0 do
      Thread.delay 0.001
    done;
    (* No new admissions; workers drain what was admitted, then exit. *)
    Queue.close t.queue;
    Worker.join t.pool;
    Transport.close_listener t.endpoint t.listen_fd;
    Obs.Gauge.set "server.queue_depth" 0.0;
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
