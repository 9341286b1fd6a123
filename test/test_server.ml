(* The compilation-service battery: wire-codec round-trips and rejection
   of damaged frames, admission-queue semantics, and a live in-process
   server driven over real Unix-domain sockets — byte-identity of served
   builds against the in-process pipeline across the oracle matrix, typed
   Overloaded under a full queue, deadlines, abusive-client faults
   (lib/check), and SIGTERM graceful drain.

   The fleet layer on top: Transport endpoint strings and port-0 binds,
   consistent-hash ring properties (uniform spread, minimal disruption),
   router failover against the Fault.Server.Fixture mini-daemons (accept-
   then-close, stall-mid-frame, die-after-k), health-check revival, and
   end-to-end byte-identity of the same requests served over a Unix
   socket, direct TCP, and the router across a forced failover. None of
   the failover tests sleeps on a real clock: fixtures synchronize on
   condition variables and the router's backoff sleep is injected. *)

open Calibro_core
open Calibro_workload
module Protocol = Calibro_server.Protocol
module Queue = Calibro_server.Queue
module Worker = Calibro_server.Worker
module Server = Calibro_server.Server
module Client = Calibro_server.Client
module Router = Calibro_server.Router
module Transport = Calibro_server.Transport
module Fault = Calibro_check.Fault
module Fixture = Calibro_check.Fault.Server.Fixture
module Chash = Calibro_chash.Chash
module Obs = Calibro_obs.Obs

(* Counters are process-wide, so every assertion reads a delta: [deltas
   ()] snapshots them all, and the returned function reads one counter's
   change since the snapshot. *)
let deltas () =
  let base = Obs.Counter.all () in
  fun name ->
    Obs.Counter.value name
    - Option.value ~default:0 (List.assoc_opt name base)

(* A reader thread may count an admission just after its job was
   answered, so a live read right after the clients return polls until
   the expected value shows up (for at most 5 s) before it checks. *)
let check_eventually msg expected read =
  let rec go n =
    let v = read () in
    if v = expected || n = 0 then v
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  Alcotest.(check int) msg expected (go 500)

let demo_app = lazy (Appgen.generate Apps.demo)

let request ?profile ?deadline_ms ?dict ?shelve ?(config = Config.baseline)
    dexsim =
  { Protocol.rq_config = config;
    rq_dexsim = dexsim;
    rq_profile = profile;
    rq_deadline_ms = deadline_ms;
    rq_dict = dict;
    rq_shelve = shelve }

let demo_request ?profile ?deadline_ms ?dict ?shelve ?config () =
  request ?profile ?deadline_ms ?dict ?shelve ?config
    (Calibro_dex.Dex_text.to_string (Lazy.force demo_app).Appgen.app)

let sock_counter = ref 0

(* A fresh socket path per server; the server unlinks it on drain. *)
let fresh_socket () =
  incr sock_counter;
  Printf.sprintf "%s/calibro-test-%d-%d.sock"
    (Filename.get_temp_dir_name ())
    (Unix.getpid ()) !sock_counter

let fresh_endpoint () = Transport.Unix_socket { path = fresh_socket () }

let with_server ?(workers = 2) ?(queue_capacity = 16) ?(recv_timeout_s = 10.0)
    ?(dict = fun () -> None) ?cache ?endpoint ?pgo ?shelve f =
  let cache =
    match cache with Some c -> c | None -> Calibro_cache.Cache.create ()
  in
  let endpoint =
    match endpoint with Some ep -> ep | None -> fresh_endpoint ()
  in
  let t =
    Server.create
      { Server.endpoint;
        workers;
        queue_capacity;
        cache = Some cache;
        recv_timeout_s;
        default_deadline_ms = None;
        dict;
        pgo;
        shelve }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain t;
      Server.drain t)
    (fun () -> f t)

let response =
  Alcotest.testable
    (fun fmt -> function
      | Protocol.Built { oat; stats } ->
        Format.fprintf fmt "Built(%d bytes, %d methods)" (String.length oat)
          stats.Protocol.bs_methods
      | Protocol.Rejected r ->
        Format.fprintf fmt "Rejected(%s)" (Protocol.rejection_to_string r)
      | Protocol.Dict_info { di_digest } ->
        Format.fprintf fmt "Dict_info(%s)"
          (Option.value ~default:"-" di_digest)
      | Protocol.Report_ack { ra_drift; ra_relink } ->
        Format.fprintf fmt "Report_ack(%.3f, relink=%b)" ra_drift ra_relink)
    (fun a b ->
      match (a, b) with
      | Protocol.Built a, Protocol.Built b ->
        (* Byte equality of the whole OAT image; stats must agree except
           for the wall-clock field. *)
        String.equal a.oat b.oat
        && a.stats.Protocol.bs_text_size = b.stats.Protocol.bs_text_size
        && a.stats.Protocol.bs_methods = b.stats.Protocol.bs_methods
        && a.stats.Protocol.bs_thunks = b.stats.Protocol.bs_thunks
        && a.stats.Protocol.bs_outlined = b.stats.Protocol.bs_outlined
      | Protocol.Rejected a, Protocol.Rejected b -> a = b
      | Protocol.Dict_info { di_digest = a }, Protocol.Dict_info { di_digest = b }
        -> a = b
      | Protocol.Report_ack a, Protocol.Report_ack b ->
        a.ra_drift = b.ra_drift && a.ra_relink = b.ra_relink
      | _ -> false)

(* ---- Wire codec ---------------------------------------------------------- *)

let sample_config =
  { (Config.cto_ltbo_pl ~k:4 ()) with
    Config.name = "wire-sample";
    hot_methods =
      [ { Calibro_dex.Dex_ir.class_name = "com.a.B"; method_name = "run" };
        { Calibro_dex.Dex_ir.class_name = "com.c.D"; method_name = "go" } ] }

let sample_request =
  { Protocol.rq_config = sample_config;
    rq_dexsim = ".apk x\n.dex d\n";
    rq_profile = Some "com.a.B run 500\n";
    rq_deadline_ms = Some 1500;
    rq_dict = Some (String.make 32 'd');
    rq_shelve = Some 0.85 }

let sample_stats =
  { Protocol.bs_text_size = 40960;
    bs_methods = 123;
    bs_thunks = 7;
    bs_outlined = 31;
    bs_build_s = 0.4375 }

let check_request_roundtrip name rq =
  match Protocol.decode_request (Protocol.encode_request rq) with
  | Error e -> Alcotest.failf "%s did not decode: %s" name e
  | Ok rq' ->
    Alcotest.(check bool) (name ^ " round-trips") true
      (Protocol.Build rq = rq')

let check_response_roundtrip name resp =
  Alcotest.(check string) (name ^ " frames in the encoder's buffer")
    (Protocol.to_frame (Protocol.encode_response resp))
    (Protocol.frame_response resp);
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Error e -> Alcotest.failf "%s did not decode: %s" name e
  | Ok resp' -> Alcotest.check response name resp resp'

let codec_tests =
  [ Alcotest.test_case "request round-trips exactly" `Quick (fun () ->
        check_request_roundtrip "full request" sample_request;
        check_request_roundtrip "bare request"
          { Protocol.rq_config = Config.baseline;
            rq_dexsim = "";
            rq_profile = None;
            rq_deadline_ms = None;
            rq_dict = None;
            rq_shelve = None };
        (* The dictionary handshake is its own one-byte request. *)
        match Protocol.decode_request (Protocol.encode_hello ()) with
        | Ok Protocol.Hello -> ()
        | Ok _ -> Alcotest.fail "hello decoded as a build request"
        | Error e -> Alcotest.failf "hello did not decode: %s" e);
    Alcotest.test_case "every response round-trips exactly" `Quick (fun () ->
        check_response_roundtrip "built"
          (Protocol.Built { oat = "\x00\x01binary\xffpayload";
                            stats = sample_stats });
        List.iter
          (fun rej ->
            check_response_roundtrip
              (Protocol.rejection_to_string rej)
              (Protocol.Rejected rej))
          [ Protocol.Malformed "bad tag";
            Protocol.Parse_error "line 3: nope";
            Protocol.Build_failed "undefined method";
            Protocol.Overloaded;
            Protocol.Deadline_exceeded;
            Protocol.Draining;
            Protocol.Unavailable;
            Protocol.Internal "Stack_overflow";
            Protocol.Dict_mismatch
              { dm_want = Some "aaaa"; dm_have = Some "bbbb" };
            Protocol.Dict_mismatch { dm_want = Some "aaaa"; dm_have = None };
            Protocol.Dict_mismatch { dm_want = None; dm_have = None } ];
        check_response_roundtrip "dict_info some"
          (Protocol.Dict_info { di_digest = Some (String.make 32 'e') });
        check_response_roundtrip "dict_info none"
          (Protocol.Dict_info { di_digest = None }));
    Alcotest.test_case "every truncation of a request is rejected" `Quick
      (fun () ->
        (* Cutting the payload anywhere must produce a typed decode error
           naming a field — never a wrong request, never an exception. *)
        let full = Protocol.encode_request sample_request in
        for len = 0 to String.length full - 1 do
          match Protocol.decode_request (String.sub full 0 len) with
          | Error m ->
            Alcotest.(check bool)
              (Printf.sprintf "error at %d names the damage" len)
              true
              (String.length m > 0)
          | Ok _ ->
            Alcotest.failf "truncation to %d bytes decoded as a request" len
        done);
    Alcotest.test_case "trailing bytes are rejected" `Quick (fun () ->
        match
          Protocol.decode_request (Protocol.encode_request sample_request ^ "x")
        with
        | Error m ->
          Alcotest.(check bool) "mentions trailing" true
            (Astring.String.is_infix ~affix:"trailing" m)
        | Ok _ -> Alcotest.fail "trailing garbage decoded as a request");
    Alcotest.test_case "frame layer refuses bad magic and oversized frames"
      `Quick (fun () ->
        let feed bytes =
          let r, w = Unix.pipe () in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                [ r; w ])
            (fun () ->
              ignore
                (Unix.write_substring w bytes 0 (String.length bytes));
              Unix.close w;
              Protocol.read_frame r)
        in
        (match feed (Protocol.to_frame "hello") with
         | payload -> Alcotest.(check string) "round-trip" "hello" payload
         | exception Protocol.Frame_error m ->
           Alcotest.failf "well-formed frame refused: %s" m);
        (match feed "XLB1\x05\x00\x00\x00hello" with
         | _ -> Alcotest.fail "bad magic accepted"
         | exception Protocol.Frame_error m ->
           Alcotest.(check bool) "names the magic" true
             (Astring.String.is_infix ~affix:"magic" m));
        (match feed "CLB1\xff\xff\xff\x7fxx" with
         | _ -> Alcotest.fail "oversized length accepted"
         | exception Protocol.Frame_error m ->
           Alcotest.(check bool) "names the size" true
             (Astring.String.is_infix ~affix:"oversized" m));
        match feed (Fault.Server.first_half (Protocol.to_frame "hello")) with
        | _ -> Alcotest.fail "half frame accepted"
        | exception Protocol.Frame_error m ->
          Alcotest.(check bool) "names the EOF" true
            (Astring.String.is_infix ~affix:"EOF" m));
    Alcotest.test_case "oversized payload is refused before sending" `Quick
      (fun () ->
        let r, w = Unix.pipe () in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              [ r; w ])
          (fun () ->
            match
              Protocol.write_frame w (String.make (Protocol.max_frame + 1) 'x')
            with
            | () -> Alcotest.fail "oversized frame sent"
            | exception Protocol.Frame_error _ -> ()));
    Alcotest.test_case "frame fuzz: every corruption surfaces typed" `Quick
      (fun () ->
        (* The same corpus `calibro_fuzz --proto` runs in CI, a few seeds
           of it: truncations, bad magic, oversized declared lengths and
           garbage must all be typed Frame_errors with no over-allocation. *)
        let o = Calibro_check.Fuzz.Proto.run ~seeds:5 () in
        Alcotest.(check (list string))
          "no frame-fuzz failures" [] o.Calibro_check.Fuzz.Proto.pf_failures);
    Alcotest.test_case "router payload peeks see through the codec" `Quick
      (fun () ->
        (* request_app_digest must equal the digest of the dexsim text for
           any well-formed request, whatever the config, and refuse
           garbage; response_is_draining matches exactly Rejected
           Draining. *)
        let payload = Protocol.encode_request sample_request in
        (match Protocol.request_app_digest payload with
         | Some d ->
           Alcotest.(check string) "digest of dexsim"
             (Chash.string sample_request.Protocol.rq_dexsim) d
         | None -> Alcotest.fail "well-formed request had no digest");
        Alcotest.(check (option string)) "garbage has no digest" None
          (Protocol.request_app_digest "garbage");
        Alcotest.(check bool) "draining is draining" true
          (Protocol.response_is_draining
             (Protocol.encode_response (Protocol.Rejected Protocol.Draining)));
        List.iter
          (fun resp ->
            Alcotest.(check bool) "not draining" false
              (Protocol.response_is_draining (Protocol.encode_response resp)))
          [ Protocol.Rejected Protocol.Overloaded;
            Protocol.Rejected Protocol.Unavailable;
            Protocol.Built { oat = "x"; stats = sample_stats } ]) ]

(* ---- Transport endpoints -------------------------------------------------- *)

let endpoint_eq =
  Alcotest.testable
    (fun fmt ep -> Format.pp_print_string fmt (Transport.to_string ep))
    ( = )

let transport_tests =
  [ Alcotest.test_case "endpoint strings parse, print and round-trip" `Quick
      (fun () ->
        let ok s ep =
          match Transport.of_string s with
          | Ok got -> Alcotest.check endpoint_eq s ep got
          | Error e -> Alcotest.failf "%S refused: %s" s e
        in
        ok "unix:/tmp/x.sock" (Transport.Unix_socket { path = "/tmp/x.sock" });
        ok "/tmp/x.sock" (Transport.Unix_socket { path = "/tmp/x.sock" });
        ok "tcp:127.0.0.1:8080"
          (Transport.Tcp { host = "127.0.0.1"; port = 8080 });
        ok "127.0.0.1:8080" (Transport.Tcp { host = "127.0.0.1"; port = 8080 });
        ok "localhost:0" (Transport.Tcp { host = "localhost"; port = 0 });
        (* to_string output is itself parseable — config files and CLI
           flags can echo endpoints verbatim. *)
        List.iter
          (fun ep ->
            match Transport.of_string (Transport.to_string ep) with
            | Ok ep' ->
              Alcotest.check endpoint_eq (Transport.to_string ep) ep ep'
            | Error e ->
              Alcotest.failf "%s did not re-parse: %s"
                (Transport.to_string ep) e)
          [ Transport.Unix_socket { path = "/run/calibro.sock" };
            Transport.Tcp { host = "10.0.0.7"; port = 9131 } ];
        List.iter
          (fun s ->
            match Transport.of_string s with
            | Error _ -> ()
            | Ok ep ->
              Alcotest.failf "%S parsed as %s" s (Transport.to_string ep))
          [ ""; "tcp:127.0.0.1"; "tcp:host:99999"; "tcp::123"; "nohost" ]);
    Alcotest.test_case "a TCP port-0 listen resolves a connectable port"
      `Quick (fun () ->
        let fd, resolved =
          Transport.listen (Transport.Tcp { host = "127.0.0.1"; port = 0 })
        in
        Fun.protect
          ~finally:(fun () -> Transport.close_listener resolved fd)
          (fun () ->
            (match resolved with
             | Transport.Tcp { port; _ } ->
               Alcotest.(check bool) "kernel picked a port" true (port > 0)
             | ep ->
               Alcotest.failf "resolved to %s" (Transport.to_string ep));
            let c = Transport.connect resolved in
            let s, _ = Unix.accept fd in
            Unix.close s;
            Unix.close c)) ]

(* ---- The consistent-hash ring --------------------------------------------- *)

(* 10k app digests, the keyspace the distribution properties quantify
   over. Deterministic, so these are exact assertions, not flaky
   statistics. *)
let ring_keys =
  lazy (Array.init 10_000 (fun i -> Chash.string (Printf.sprintf "app-%d" i)))

let ring_tests =
  [ Alcotest.test_case "keys spread uniformly across 3..16 shards" `Quick
      (fun () ->
        let keys = Lazy.force ring_keys in
        for shards = 3 to 16 do
          let ring = Router.Ring.make ~shards ~replicas:128 in
          let counts = Array.make shards 0 in
          Array.iter
            (fun k ->
              let o = Router.Ring.lookup ring k in
              counts.(o) <- counts.(o) + 1)
            keys;
          let expected = float_of_int (Array.length keys) /. float_of_int shards in
          (* Chi-square-style bound: with 128 virtual nodes per shard the
             arc-share coefficient of variation is ~1/sqrt(128) ≈ 9%, so a
             ±35% band per shard is a >3σ envelope — tight enough to catch
             a broken mix (a linear point function clumps 10x), loose
             enough to hold for every shard count. *)
          let chi2 = ref 0.0 in
          Array.iteri
            (fun i c ->
              let dev = (float_of_int c -. expected) /. expected in
              chi2 := !chi2 +. (float_of_int c -. expected) ** 2.0 /. expected;
              if Float.abs dev > 0.35 then
                Alcotest.failf
                  "%d shards: shard %d owns %d keys (expected %.0f, %.0f%% off)"
                  shards i c expected (100.0 *. dev))
            counts;
          if !chi2 > 8.0 *. expected then
            Alcotest.failf "%d shards: chi-square %.0f is out of family"
              shards !chi2
        done);
    Alcotest.test_case "removing a shard remaps only its own keys" `Quick
      (fun () ->
        let keys = Lazy.force ring_keys in
        List.iter
          (fun shards ->
            let ring = Router.Ring.make ~shards ~replicas:128 in
            let removed = shards / 2 in
            let ring' = Router.Ring.remove ring removed in
            let remapped = ref 0 in
            Array.iter
              (fun k ->
                let before = Router.Ring.lookup ring k in
                let after = Router.Ring.lookup ring' k in
                if before <> removed then
                  (* The minimal-disruption law, exactly: a surviving
                     shard's keys never move. *)
                  (if before <> after then
                     Alcotest.failf
                       "%d shards: key moved %d -> %d though %d was removed"
                       shards before after removed)
                else begin
                  incr remapped;
                  if after = removed then
                    Alcotest.failf "%d shards: key still on removed shard"
                      shards
                end)
              keys;
            let fraction =
              float_of_int !remapped /. float_of_int (Array.length keys)
            in
            if fraction > 1.5 /. float_of_int shards then
              Alcotest.failf
                "%d shards: %.1f%% of keys remapped (bound %.1f%%)"
                shards (100.0 *. fraction)
                (100.0 *. 1.5 /. float_of_int shards))
          [ 3; 5; 8; 16 ]);
    Alcotest.test_case "failover order starts at the owner, covers all shards"
      `Quick (fun () ->
        let keys = Lazy.force ring_keys in
        let ring = Router.Ring.make ~shards:5 ~replicas:64 in
        Array.iter
          (fun k ->
            let order = Router.Ring.order ring k in
            Alcotest.(check int) "head is the owner"
              (Router.Ring.lookup ring k)
              (List.hd order);
            Alcotest.(check (list int)) "every shard exactly once"
              [ 0; 1; 2; 3; 4 ]
              (List.sort compare order))
          (Array.sub keys 0 200));
    Alcotest.test_case "the ring is deterministic across processes" `Quick
      (fun () ->
        (* Same shape, same ring: the routing table is pure structure, so
           a restarted router (or a second one) agrees shard-for-shard —
           pin a few lookups so an accidental reseed cannot slip by. *)
        let ring = Router.Ring.make ~shards:4 ~replicas:128 in
        let ring2 = Router.Ring.make ~shards:4 ~replicas:128 in
        Array.iter
          (fun k ->
            Alcotest.(check int) "two rings agree"
              (Router.Ring.lookup ring k)
              (Router.Ring.lookup ring2 k))
          (Array.sub (Lazy.force ring_keys) 0 500)) ]

(* ---- Admission queue ------------------------------------------------------ *)

let push_result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
         | Queue.Pushed -> "Pushed"
         | Queue.Full -> "Full"
         | Queue.Closed -> "Closed"))
    ( = )

let queue_tests =
  [ Alcotest.test_case "bounded: Full at capacity, never blocks" `Quick
      (fun () ->
        let q = Queue.create ~capacity:2 () in
        Alcotest.check push_result "1st" Queue.Pushed (Queue.try_push q 1);
        Alcotest.check push_result "2nd" Queue.Pushed (Queue.try_push q 2);
        Alcotest.check push_result "3rd is Full" Queue.Full
          (Queue.try_push q 3);
        Alcotest.(check int) "depth" 2 (Queue.length q);
        Alcotest.(check (option int)) "FIFO" (Some 1) (Queue.pop q);
        Alcotest.check push_result "slot freed" Queue.Pushed
          (Queue.try_push q 3));
    Alcotest.test_case "close drains the backlog, then returns None" `Quick
      (fun () ->
        let q = Queue.create ~capacity:4 () in
        ignore (Queue.try_push q 1);
        ignore (Queue.try_push q 2);
        Queue.close q;
        Alcotest.check push_result "push after close" Queue.Closed
          (Queue.try_push q 3);
        Alcotest.(check (option int)) "drains 1" (Some 1) (Queue.pop q);
        Alcotest.(check (option int)) "drains 2" (Some 2) (Queue.pop q);
        Alcotest.(check (option int)) "then None" None (Queue.pop q);
        Alcotest.(check (option int)) "stays None" None (Queue.pop q));
    Alcotest.test_case "blocked pop is woken by a push" `Quick (fun () ->
        let q = Queue.create ~capacity:1 () in
        let got = Atomic.make None in
        let th =
          Thread.create (fun () -> Atomic.set got (Queue.pop q)) ()
        in
        Thread.delay 0.02;
        ignore (Queue.try_push q 42);
        Thread.join th;
        Alcotest.(check (option int)) "woken with the item" (Some 42)
          (Atomic.get got));
    Alcotest.test_case "blocked pop is woken by close" `Quick (fun () ->
        let q : int Queue.t = Queue.create ~capacity:1 () in
        let done_ = Atomic.make false in
        let th =
          Thread.create
            (fun () ->
              ignore (Queue.pop q);
              Atomic.set done_ true)
            ()
        in
        Thread.delay 0.02;
        Queue.close q;
        Thread.join th;
        Alcotest.(check bool) "popper exited" true (Atomic.get done_)) ]

(* ---- Served builds vs the in-process pipeline ---------------------------- *)

(* Hot set of the demo app under its bundled script (as test_cache does),
   enabling the HfOpti row of the matrix. *)
let demo_hot () =
  let a = Lazy.force demo_app in
  let b = Pipeline.build ~cache:None ~config:Config.baseline a.Appgen.app in
  Calibro_profile.Profile.of_interp
    (Appgen.run_script b.Pipeline.b_oat a.Appgen.app_script)

let serve_tests =
  [ Alcotest.test_case
      "served builds are byte-identical across the oracle matrix" `Slow
      (fun () ->
        let prof = demo_hot () in
        let hot = Calibro_profile.Profile.hot_set prof in
        with_server @@ fun t ->
        List.iter
          (fun (config : Config.t) ->
            let rq = demo_request ~config () in
            let expected = Worker.build_response ~cache:None rq in
            match Client.request ~endpoint:(Server.endpoint t) rq with
            | Error m -> Alcotest.failf "%s: %s" config.Config.name m
            | Ok served ->
              Alcotest.check response config.Config.name expected served)
          (Config.baseline :: Config.matrix ~hot_methods:hot ()));
    Alcotest.test_case "a wire profile reaches the hot-function filter" `Quick
      (fun () ->
        let prof = demo_hot () in
        let rq =
          demo_request
            ~profile:(Calibro_profile.Profile.to_string prof)
            ~config:(Config.cto_ltbo_pl ~k:2 ())
            ()
        in
        let expected = Worker.build_response ~cache:None rq in
        (match expected with
         | Protocol.Built _ -> ()
         | Protocol.Rejected r ->
           Alcotest.failf "profiled build failed in-process: %s"
             (Protocol.rejection_to_string r)
         | Protocol.Dict_info _ | Protocol.Report_ack _ ->
           Alcotest.fail "profiled build answered a non-build response");
        with_server @@ fun t ->
        match Client.request ~endpoint:(Server.endpoint t) rq with
        | Error m -> Alcotest.fail m
        | Ok served -> Alcotest.check response "profiled build" expected served);
    Alcotest.test_case "a full queue answers typed Overloaded" `Quick
      (fun () ->
        (* One worker, one queue slot, a burst of concurrent requests:
           some build, at least one must be refused with Overloaded — and
           every request gets *an* answer (nothing hangs, nothing dies). *)
        let delta = deltas () in
        with_server ~workers:1 ~queue_capacity:1 @@ fun t ->
        let n = 12 in
        let outcomes = Array.make n (Error "not run") in
        let threads =
          List.init n (fun i ->
              Thread.create
                (fun () ->
                  outcomes.(i) <-
                    Client.request ~endpoint:(Server.endpoint t)
                      (demo_request ~config:Config.cto ()))
                ())
        in
        List.iter Thread.join threads;
        let built = ref 0 and overloaded = ref 0 in
        Array.iter
          (function
            | Ok (Protocol.Built _) -> incr built
            | Ok (Protocol.Rejected Protocol.Overloaded) -> incr overloaded
            | Ok (Protocol.Rejected r) ->
              Alcotest.failf "unexpected rejection: %s"
                (Protocol.rejection_to_string r)
            | Ok (Protocol.Dict_info _ | Protocol.Report_ack _) ->
              Alcotest.fail "unexpected non-build response"
            | Error m -> Alcotest.failf "transport error: %s" m)
          outcomes;
        Alcotest.(check int) "every request answered" n (!built + !overloaded);
        Alcotest.(check bool) "some built" true (!built >= 1);
        Alcotest.(check bool)
          (Printf.sprintf "some refused (built %d, overloaded %d)" !built
             !overloaded)
          true (!overloaded >= 1);
        check_eventually "admission tallies cover the burst" n (fun () ->
            delta "server.requests.accepted"
            + delta "server.requests.overloaded"));
    Alcotest.test_case "an expired deadline is answered, not built" `Quick
      (fun () ->
        with_server @@ fun t ->
        match
          Client.request ~endpoint:(Server.endpoint t)
            (demo_request ~deadline_ms:1 ~config:(Config.cto_ltbo_pl ~k:2 ()) ())
        with
        | Ok (Protocol.Rejected Protocol.Deadline_exceeded) -> ()
        | Ok r ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (match r with
             | Protocol.Built _ -> "Built"
             | Protocol.Rejected rej -> Protocol.rejection_to_string rej
             | Protocol.Dict_info _ -> "Dict_info"
             | Protocol.Report_ack _ -> "Report_ack")
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "the daemon serves identically over TCP" `Quick
      (fun () ->
        (* The transport must be invisible to the payload: one request,
           served over a loopback TCP port-0 bind, byte-identical to the
           in-process build like its Unix-socket twin. *)
        let rq = demo_request ~config:Config.cto () in
        let expected = Worker.build_response ~cache:None rq in
        with_server
          ~endpoint:(Transport.Tcp { host = "127.0.0.1"; port = 0 })
        @@ fun t ->
        (match Server.endpoint t with
         | Transport.Tcp { port; _ } ->
           Alcotest.(check bool) "resolved port" true (port > 0)
         | ep -> Alcotest.failf "resolved to %s" (Transport.to_string ep));
        match Client.request ~endpoint:(Server.endpoint t) rq with
        | Error m -> Alcotest.fail m
        | Ok served -> Alcotest.check response "tcp-served build" expected served)
  ]

(* ---- The one frame writer -----------------------------------------------

   Every response, a [Built] included, leaves through [Worker.respond] and
   [Protocol.write_framed]: encode and frame in one buffer, one write
   loop, close. These cases hold that writer to its delivery contract. *)

module Oat_file = Calibro_oat.Oat_file

let demo_build () =
  match Worker.build_oat ~cache:None (demo_request ~config:Config.cto ()) with
  | Ok v -> v
  | Error r ->
    Alcotest.failf "build failed in-process: %s"
      (Protocol.rejection_to_string r)

let writer_tests =
  [ Alcotest.test_case "respond refuses an oversized Built" `Quick
      (fun () ->
        (* A container larger than max_frame must be refused by the writer
           (nothing sent, undelivered), mirroring read_frame's bound on
           the other side. *)
        let _, stats = demo_build () in
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close a)
          (fun () ->
            Alcotest.(check bool) "undelivered" false
              (Worker.respond b
                 (Protocol.Built
                    { oat = String.make (Protocol.max_frame + 1) 'x'; stats }));
            match Protocol.read_frame a with
            | _ -> Alcotest.fail "an oversized Built frame was sent"
            | exception Protocol.Frame_error m ->
              Alcotest.(check bool) "peer saw EOF" true
                (Astring.String.is_infix ~affix:"EOF" m)));
    Alcotest.test_case "a Built frame leaves its encoder in one copy" `Quick
      (fun () ->
        (* The encoder's buffer (sized up front) and the frame copied out
           of it: about two frames' worth of bytes, where framing the
           encoded payload afterwards costs two more copies. *)
        let oat = String.make 1_000_000 'o' in
        let resp = Protocol.Built { oat; stats = sample_stats } in
        let a0 = Gc.allocated_bytes () in
        let frame = Protocol.frame_response resp in
        let allocated = Gc.allocated_bytes () -. a0 in
        let size = float_of_int (String.length frame) in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f bytes allocated for a %.0f-byte frame"
             allocated size)
          true
          (allocated < 2.1 *. size));
    Alcotest.test_case "respond Built round-trips" `Quick
      (fun () ->
        (* The full delivery path — encode, frame, write, close — read
           back through the standard client-side decoder. *)
        let rq = demo_request ~config:Config.cto () in
        let expected = Worker.build_response ~cache:None rq in
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let delivered = ref false in
        let writer =
          Thread.create (fun () -> delivered := Worker.respond b expected) ()
        in
        let served =
          match Protocol.decode_response (Protocol.read_frame a) with
          | Ok resp -> resp
          | Error m -> Alcotest.failf "undecodable response: %s" m
        in
        Thread.join writer;
        Unix.close a;
        Alcotest.(check bool) "delivered" true !delivered;
        Alcotest.check response "served = build_response" expected served);
    Alcotest.test_case "respond to a dead peer is undelivered" `Quick
      (fun () ->
        let oat, stats = demo_build () in
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.close a;
        (* EPIPE territory: must come back false, never raise, and the fd
           must be closed (a second close raises EBADF). *)
        Alcotest.(check bool) "undelivered" false
          (Worker.respond b
             (Protocol.Built
                { oat = Bytes.to_string (Oat_file.to_bytes oat); stats }));
        Alcotest.(check bool) "fd closed" true
          (match Unix.close b with
          | () -> false
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> true));
    Alcotest.test_case "zero-length write is a Frame_error" `Quick
      (fun () ->
        (* Regression: a [write] returning 0 for a nonempty buffer used to
           spin the writer thread forever. Inject one and demand the typed
           error instead. *)
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () ->
            match
              Protocol.write_frame ~write:(fun _ _ _ _ -> 0) null
                "undeliverable payload"
            with
            | () -> Alcotest.fail "zero-length write was not an error"
            | exception Protocol.Frame_error m ->
              Alcotest.(check bool) "names the zero-length write" true
                (Astring.String.is_infix ~affix:"zero-length" m)));
    Alcotest.test_case "write_frame propagates EPIPE" `Quick
      (fun () ->
        (* Writing to a peer that hung up must surface the broken pipe as
           Unix_error, not hide it: respond's undelivered=false depends on
           seeing it. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.close a;
        Fun.protect
          ~finally:(fun () -> Unix.close b)
          (fun () ->
            match Protocol.write_frame b (String.make 65536 'x') with
            | () -> Alcotest.fail "write to a dead peer succeeded"
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
              -> ())) ]

(* ---- Abusive clients (lib/check fault points) ----------------------------- *)

let raw_connect t = Transport.connect (Server.endpoint t)

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

(* After the abuse, the server must still answer a well-formed request
   correctly — the fault cost one request, not the daemon. *)
let assert_still_serving t =
  match Client.request ~endpoint:(Server.endpoint t) (demo_request ()) with
  | Ok (Protocol.Built _) -> ()
  | Ok (Protocol.Rejected r) ->
    Alcotest.failf "server degraded after fault: %s"
      (Protocol.rejection_to_string r)
  | Ok (Protocol.Dict_info _ | Protocol.Report_ack _) ->
    Alcotest.fail "server answered a non-build response after fault"
  | Error m -> Alcotest.failf "server dead after fault: %s" m

let fault_tests =
  [ Alcotest.test_case "drop-mid-frame costs one connection" `Quick (fun () ->
        with_server @@ fun t ->
        Fault.Server.inject Fault.Server.Drop_mid_frame;
        let frame =
          Protocol.to_frame (Protocol.encode_request (demo_request ()))
        in
        let fd = raw_connect t in
        write_all fd (Fault.Server.first_half frame);
        Unix.close fd;
        (* The reader sees EOF mid-frame and gives up on that connection. *)
        assert_still_serving t);
    Alcotest.test_case "stall-mid-frame is reaped by the receive timeout"
      `Quick (fun () ->
        let delta = deltas () in
        with_server ~recv_timeout_s:0.2 @@ fun t ->
        Fault.Server.inject Fault.Server.Stall_mid_frame;
        let frame =
          Protocol.to_frame (Protocol.encode_request (demo_request ()))
        in
        let fd = raw_connect t in
        write_all fd (Fault.Server.first_half frame);
        (* Hold the connection open, never sending the rest. *)
        Thread.delay 0.5;
        assert_still_serving t;
        Unix.close fd;
        let stalled = delta "server.requests.stalled" in
        Alcotest.(check bool)
          (Printf.sprintf "stall counted (stalled %d)" stalled)
          true (stalled >= 1));
    Alcotest.test_case "a poisoned job fails only its own request" `Quick
      (fun () ->
        with_server @@ fun t ->
        Fault.Server.inject Fault.Server.Poison_job;
        (match
           Client.request ~endpoint:(Server.endpoint t)
             (request Fault.Server.poison_dexsim)
         with
         | Ok (Protocol.Rejected (Protocol.Build_failed _)) -> ()
         | Ok (Protocol.Built _) -> Alcotest.fail "poisoned job built"
         | Ok (Protocol.Rejected r) ->
           Alcotest.failf "expected Build_failed, got %s"
             (Protocol.rejection_to_string r)
         | Ok (Protocol.Dict_info _ | Protocol.Report_ack _) ->
           Alcotest.fail "unexpected non-build response"
         | Error m -> Alcotest.fail m);
        assert_still_serving t);
    Alcotest.test_case "an oversized frame is answered Build_failed" `Quick
      (fun () ->
        with_server @@ fun t ->
        List.iter
          (fun regs ->
            let dexsim =
              Printf.sprintf
                ".apk t\n.dex d\n.class t\n\
                 .method f params #1 regs #%d entry\n  return v0\n.end\n"
                regs
            in
            match Client.request ~endpoint:(Server.endpoint t) (request dexsim) with
            | Ok (Protocol.Rejected (Protocol.Build_failed m)) ->
              Alcotest.(check bool) m true
                (Astring.String.is_infix ~affix:"exceeds 508" m)
            | Ok (Protocol.Rejected r) ->
              Alcotest.failf "regs #%d: expected Build_failed, got %s" regs
                (Protocol.rejection_to_string r)
            | Ok _ -> Alcotest.failf "regs #%d was not rejected" regs
            | Error m -> Alcotest.fail m)
          [ 509; 100_000_000 ];
        assert_still_serving t);
    Alcotest.test_case "garbage bytes get a typed Malformed answer" `Quick
      (fun () ->
        with_server @@ fun t ->
        let fd = raw_connect t in
        write_all fd "GET / HTTP/1.1\r\n\r\n";
        (match Protocol.read_frame fd with
         | payload -> (
           match Protocol.decode_response payload with
           | Ok (Protocol.Rejected (Protocol.Malformed _)) -> ()
           | Ok _ -> Alcotest.fail "garbage was not answered Malformed"
           | Error e -> Alcotest.failf "unreadable answer: %s" e)
         | exception Protocol.Frame_error _ ->
           (* The server may also just hang up on garbage; either way it
              must keep serving. *)
           ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        assert_still_serving t) ]

(* ---- The router against misbehaving shards -------------------------------- *)

(* A canned response payload a fixture can serve: decodable and
   distinguishable by its message. *)
let canned name = Protocol.encode_response (Protocol.Rejected (Protocol.Internal name))

(* A garbage payload (deliberately NOT a decodable request, exercising the
   router's raw-digest fallback) that the ring routes to shard [want]. *)
let payload_routed_to ~replicas ~shards want =
  let ring = Router.Ring.make ~shards ~replicas in
  let rec go i =
    if i > 100_000 then failwith "no payload routes to the wanted shard"
    else
      let p = Printf.sprintf "fixture-payload-%d" i in
      if Router.Ring.lookup ring (Chash.string p) = want then p else go (i + 1)
  in
  go 0

(* One raw request through an endpoint: frame out, frame in, decode. *)
let raw_request endpoint payload =
  let fd = Transport.connect endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Protocol.write_frame fd payload;
      Protocol.decode_response (Protocol.read_frame fd))

let rejection_answer =
  Alcotest.testable
    (fun fmt -> function
      | Ok r ->
        Format.pp_print_string fmt
          (match r with
           | Protocol.Built _ -> "Built"
           | Protocol.Rejected rej -> Protocol.rejection_to_string rej
           | Protocol.Dict_info _ -> "Dict_info"
           | Protocol.Report_ack _ -> "Report_ack")
      | Error e -> Format.fprintf fmt "Error(%s)" e)
    ( = )

(* A router over [shards] with everything timing-dependent neutered: no
   health thread (tests call check_health), no receive timeout (failures
   are EOF- or reset-driven), and the backoff sleep recorded instead of
   slept — the clock injection the failover tests rely on. *)
let with_router ?(replicas = 32) ?max_attempts ~shards f =
  let sleeps = ref [] in
  let cfg =
    { (Router.default_config
         ~listen:(fresh_endpoint ())
         ~shards:(Array.of_list shards))
      with
      Router.replicas;
      health_period_s = 0.0;
      recv_timeout_s = 0.0;
      sleep = (fun d -> sleeps := d :: !sleeps) }
  in
  let cfg =
    match max_attempts with
    | None -> cfg
    | Some m -> { cfg with Router.max_attempts = m }
  in
  let t = Router.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Router.request_drain t;
      Router.drain t)
    (fun () -> f t sleeps)

(* A TCP endpoint nobody listens on: bound, resolved, closed. *)
let dead_endpoint () =
  let fd, ep = Transport.listen (Transport.Tcp { host = "127.0.0.1"; port = 0 }) in
  Unix.close fd;
  ep

let router_tests =
  [ Alcotest.test_case "a shard that accepts and hangs up is failed over"
      `Quick (fun () ->
        let bad = Fixture.start Fixture.Accept_close in
        let good = Fixture.start (Fixture.Serve (fun _ -> canned "good")) in
        Fun.protect
          ~finally:(fun () -> Fixture.stop bad; Fixture.stop good)
          (fun () ->
            with_router
              ~shards:[ Fixture.endpoint bad; Fixture.endpoint good ]
              (fun t sleeps ->
                let delta = deltas () in
                let payload = payload_routed_to ~replicas:32 ~shards:2 0 in
                Alcotest.check rejection_answer "served by the survivor"
                  (Ok (Protocol.Rejected (Protocol.Internal "good")))
                  (raw_request (Router.endpoint t) payload);
                Alcotest.(check bool) "bad shard marked down" false
                  (Router.shard_up t 0);
                Alcotest.(check int) "bad shard charged the retry" 1
                  (delta "router.shard0.retries");
                Alcotest.(check int) "bad shard charged the failover" 1
                  (delta "router.shard0.failovers");
                Alcotest.(check int) "survivor forwarded it" 1
                  (delta "router.shard1.forwarded");
                (* One backoff draw, within the attempt-1 ceiling; the
                   sleep was injected, so the test never actually waited. *)
                (match !sleeps with
                 | [ d ] ->
                   Alcotest.(check bool) "jitter in [0, base]" true
                     (d >= 0.0 && d <= 0.01)
                 | ds ->
                   Alcotest.failf "expected 1 backoff, saw %d"
                     (List.length ds)))));
    Alcotest.test_case "a shard stalling mid-frame is failed over on release"
      `Quick (fun () ->
        let stall =
          Fixture.start (Fixture.Stall_mid_frame { response = canned "stall" })
        in
        let good = Fixture.start (Fixture.Serve (fun _ -> canned "good")) in
        Fun.protect
          ~finally:(fun () -> Fixture.stop stall; Fixture.stop good)
          (fun () ->
            with_router
              ~shards:[ Fixture.endpoint stall; Fixture.endpoint good ]
              (fun t _sleeps ->
                let delta = deltas () in
                let payload = payload_routed_to ~replicas:32 ~shards:2 0 in
                let answer = Atomic.make (Error "not run") in
                let client =
                  Thread.create
                    (fun () ->
                      Atomic.set answer
                        (raw_request (Router.endpoint t) payload))
                    ()
                in
                (* Wait for the shard to be wedged mid-response (condition
                   variable, not a sleep), then cut it loose: the router
                   sees EOF inside the frame and re-routes. *)
                Fixture.await_stalled stall;
                Fixture.release stall;
                Thread.join client;
                Alcotest.check rejection_answer "served by the survivor"
                  (Ok (Protocol.Rejected (Protocol.Internal "good")))
                  (Atomic.get answer);
                Alcotest.(check int) "stalled shard charged the failover" 1
                  (delta "router.shard0.failovers"))));
    Alcotest.test_case "a shard dying after k responses loses only later work"
      `Quick (fun () ->
        let flaky =
          Fixture.start
            (Fixture.Die_after { responses = 1; serve = (fun _ -> canned "flaky") })
        in
        let good = Fixture.start (Fixture.Serve (fun _ -> canned "good")) in
        Fun.protect
          ~finally:(fun () -> Fixture.stop flaky; Fixture.stop good)
          (fun () ->
            with_router
              ~shards:[ Fixture.endpoint flaky; Fixture.endpoint good ]
              (fun t _sleeps ->
                let delta = deltas () in
                let payload = payload_routed_to ~replicas:32 ~shards:2 0 in
                Alcotest.check rejection_answer "first request served in place"
                  (Ok (Protocol.Rejected (Protocol.Internal "flaky")))
                  (raw_request (Router.endpoint t) payload);
                Alcotest.check rejection_answer
                  "second request fails over to the survivor"
                  (Ok (Protocol.Rejected (Protocol.Internal "good")))
                  (raw_request (Router.endpoint t) payload);
                Alcotest.(check int) "fixture died after exactly 1 response" 1
                  (Fixture.served flaky);
                Alcotest.(check int) "dead shard served the first" 1
                  (delta "router.shard0.forwarded");
                Alcotest.(check int) "dead shard charged one failover" 1
                  (delta "router.shard0.failovers");
                Alcotest.(check int) "survivor served the second" 1
                  (delta "router.shard1.forwarded"))));
    Alcotest.test_case "all shards down answers typed Unavailable" `Quick
      (fun () ->
        with_router ~max_attempts:3
          ~shards:[ dead_endpoint (); dead_endpoint () ]
          (fun t sleeps ->
            let delta = deltas () in
            Alcotest.check rejection_answer "typed, not a hang or a drop"
              (Ok (Protocol.Rejected Protocol.Unavailable))
              (raw_request (Router.endpoint t) "anything");
            Alcotest.(check int) "counted unavailable" 1
              (delta "router.requests.unavailable");
            Alcotest.(check int) "all attempts were retries" 3
              (delta "router.shard0.retries" + delta "router.shard1.retries");
            Alcotest.(check int) "nothing forwarded" 0
              (delta "router.requests.forwarded");
            (* max_attempts - 1 backoffs, capped exponential: ceilings
               base, 2*base — every draw within its ceiling. *)
            let ds = List.rev !sleeps in
            Alcotest.(check int) "backoffs between attempts" 2 (List.length ds);
            List.iteri
              (fun i d ->
                let ceiling = Float.min 0.2 (0.01 *. float_of_int (1 lsl i)) in
                Alcotest.(check bool)
                  (Printf.sprintf "draw %d within ceiling %.3f" i ceiling)
                  true
                  (d >= 0.0 && d <= ceiling))
              ds));
    Alcotest.test_case "a health check revives a returned shard" `Quick
      (fun () ->
        (* One shard, not yet listening: requests get Unavailable and the
           shard is marked down. Start the daemon on that very endpoint,
           run one health probe — no restart, no timer — and the next
           request is served. *)
        let ep = fresh_endpoint () in
        with_router ~max_attempts:2 ~shards:[ ep ] (fun t _sleeps ->
            Alcotest.check rejection_answer "down: typed Unavailable"
              (Ok (Protocol.Rejected Protocol.Unavailable))
              (raw_request (Router.endpoint t) "anything");
            Alcotest.(check bool) "marked down" false (Router.shard_up t 0);
            (* a returned daemon answers the Hello probe *)
            let serve p =
              if Protocol.decode_request p = Ok Protocol.Hello then
                Protocol.encode_response (Protocol.Dict_info { di_digest = None })
              else canned "back"
            in
            let fx = Fixture.start ~endpoint:ep (Fixture.Serve serve) in
            Fun.protect
              ~finally:(fun () -> Fixture.stop fx)
              (fun () ->
                Router.check_health t;
                Alcotest.(check bool) "revived by the probe" true
                  (Router.shard_up t 0);
                Alcotest.check rejection_answer "served again"
                  (Ok (Protocol.Rejected (Protocol.Internal "back")))
                  (raw_request (Router.endpoint t) "anything"))));
    Alcotest.test_case "the prober revives a real daemon, not malformed"
      `Quick (fun () ->
        (* The probe is a Hello round trip: a shard that answers anything
           else stays down, and a daemon counts the probe as a hello, not
           as a malformed frame. *)
        let ep = fresh_endpoint () in
        with_router ~max_attempts:1 ~shards:[ ep ] (fun t _sleeps ->
            ignore (raw_request (Router.endpoint t) "anything");
            Alcotest.(check bool) "marked down" false (Router.shard_up t 0);
            let fx = Fixture.start ~endpoint:ep (Fixture.Serve (fun _ -> canned "x")) in
            Fun.protect
              ~finally:(fun () -> Fixture.stop fx)
              (fun () ->
                Router.check_health t;
                Alcotest.(check bool) "not a daemon: still down" false
                  (Router.shard_up t 0));
            with_server ~endpoint:ep (fun _srv ->
                let delta = deltas () in
                Router.check_health t;
                Alcotest.(check bool) "revived by the prober" true
                  (Router.shard_up t 0);
                Alcotest.(check int) "one probe" 1 (delta "router.health_probes");
                Alcotest.(check int) "one hello" 1
                  (delta "server.requests.hello");
                Alcotest.(check int) "no malformed request" 0
                  (delta "server.requests.malformed"))));
    Alcotest.test_case "garbage to the router is answered Malformed" `Quick
      (fun () ->
        let good = Fixture.start (Fixture.Serve (fun _ -> canned "good")) in
        Fun.protect
          ~finally:(fun () -> Fixture.stop good)
          (fun () ->
            with_router ~shards:[ Fixture.endpoint good ] (fun t _sleeps ->
                let delta = deltas () in
                let fd = Transport.connect (Router.endpoint t) in
                write_all fd "GET / HTTP/1.1\r\n\r\n";
                (match Protocol.read_frame fd with
                 | payload -> (
                   match Protocol.decode_response payload with
                   | Ok (Protocol.Rejected (Protocol.Malformed _)) -> ()
                   | Ok _ -> Alcotest.fail "garbage not answered Malformed"
                   | Error e -> Alcotest.failf "unreadable answer: %s" e)
                 | exception Protocol.Frame_error _ -> ());
                (try Unix.close fd with Unix.Unix_error _ -> ());
                Alcotest.(check int) "counted malformed" 1
                  (delta "router.requests.malformed"))));
    Alcotest.test_case "count_as_conn_error separates peer I/O from bugs"
      `Quick (fun () ->
        (* The reader-thread drop policy, pinned: peer-inducible I/O and
           protocol failures drop the connection; programming errors and
           asynchronous exceptions must re-raise, never be swallowed. *)
        List.iter
          (fun e ->
            Alcotest.(check bool) (Printexc.to_string e) true
              (Router.count_as_conn_error e))
          [ Unix.Unix_error (Unix.ECONNRESET, "read", "");
            Unix.Unix_error (Unix.EPIPE, "write", "");
            Protocol.Frame_error "short frame";
            Sys_error "I/O error";
            End_of_file ];
        List.iter
          (fun e ->
            Alcotest.(check bool) (Printexc.to_string e) false
              (Router.count_as_conn_error e))
          [ Out_of_memory;
            Stack_overflow;
            Assert_failure ("router.ml", 1, 1);
            Not_found;
            Invalid_argument "bug";
            Failure "bug" ]);
    Alcotest.test_case "an I/O escape from the reader is dropped and counted"
      `Quick (fun () ->
        (* Regression: the reader used to swallow *every* exception with
           [try ... with _ -> ()]. Provoke an expected-class escape — the
           injected backoff sleep raises Unix_error once the lone dead
           shard forces a retry — and demand the dropped connection shows
           up in the [router.conn_errors] counter, live and after drain. *)
        let cfg =
          { (Router.default_config
               ~listen:(fresh_endpoint ())
               ~shards:[| dead_endpoint () |])
            with
            Router.replicas = 32;
            health_period_s = 0.0;
            recv_timeout_s = 0.0;
            sleep = (fun _ -> raise (Unix.Unix_error (Unix.EIO, "sleep", "")))
          }
        in
        let t = Router.create cfg in
        let delta = deltas () in
        Fun.protect
          ~finally:(fun () ->
            Router.request_drain t;
            Router.drain t)
          (fun () ->
            (match raw_request (Router.endpoint t) "anything" with
            | Ok _ | Error _ ->
              Alcotest.fail "connection was answered, not dropped"
            | exception Protocol.Frame_error _ -> ());
            Alcotest.(check int) "drop counted" 1 (delta "router.conn_errors");
            Alcotest.(check int) "nothing forwarded" 0
              (delta "router.requests.forwarded"));
        Alcotest.(check int) "not counted again at drain" 1
          (delta "router.conn_errors"))
  ]

(* ---- End-to-end byte-identity across transports --------------------------- *)

let e2e_tests =
  [ Alcotest.test_case
      "unix, tcp and routed-with-failover serve identical bytes" `Slow
      (fun () ->
        (* The same request matrix through all three front doors — and the
           routed pass survives a forced mid-matrix shard drain. Every
           answer must be byte-identical to the in-process build, and the
           router's accounting must add up. *)
        let configs =
          [ Config.baseline; Config.cto; Config.cto_ltbo_pl ~k:2 () ]
        in
        let matrix = List.map (fun config -> demo_request ~config ()) configs in
        let expected = List.map (Worker.build_response ~cache:None) matrix in
        let check_pass name served =
          List.iter2
            (fun (e, (c : Config.t)) s ->
              Alcotest.check response
                (Printf.sprintf "%s: %s" name c.Config.name)
                e s)
            (List.combine expected configs)
            served
        in
        let serve_all t =
          List.map
            (fun rq ->
              match Client.request ~endpoint:(Server.endpoint t) rq with
              | Ok resp -> resp
              | Error m -> Alcotest.failf "transport: %s" m)
            matrix
        in
        (* Front door 1: the Unix-domain socket. *)
        with_server (fun t -> check_pass "unix" (serve_all t));
        (* Front door 2: direct TCP. *)
        with_server ~endpoint:(Transport.Tcp { host = "127.0.0.1"; port = 0 })
          (fun t -> check_pass "tcp" (serve_all t));
        (* Front door 3: two TCP shards behind the router. All requests
           share one dexsim, so shard affinity routes them to a single
           owner — drain exactly that shard and re-ask: the answer must
           come back identical from the survivor, through a failover. *)
        let mk_server () =
          Server.create
            { (Server.default_config
                 ~endpoint:(Transport.Tcp { host = "127.0.0.1"; port = 0 }))
              with
              Server.cache = Some (Calibro_cache.Cache.create ()) }
        in
        let s0 = mk_server () and s1 = mk_server () in
        let shards = [ Server.endpoint s0; Server.endpoint s1 ] in
        let servers = [| s0; s1 |] in
        let drained = Array.make 2 false in
        let drain i =
          if not drained.(i) then begin
            Server.request_drain servers.(i);
            Server.drain servers.(i);
            drained.(i) <- true
          end
        in
        Fun.protect
          ~finally:(fun () -> drain 0; drain 1)
          (fun () ->
            with_router ~replicas:128 ~shards (fun t _sleeps ->
                let delta = deltas () in
                let shard i what =
                  delta (Printf.sprintf "router.shard%d.%s" i what)
                in
                let routed =
                  List.map
                    (fun rq ->
                      match
                        Client.request ~endpoint:(Router.endpoint t) rq
                      with
                      | Ok resp -> resp
                      | Error m -> Alcotest.failf "router transport: %s" m)
                    matrix
                in
                check_pass "router" routed;
                let owner =
                  Router.Ring.lookup
                    (Router.Ring.make ~shards:2 ~replicas:128)
                    (Chash.string
                       (List.hd matrix).Protocol.rq_dexsim)
                in
                Alcotest.(check int)
                  "shard affinity: one owner served the whole matrix"
                  (List.length matrix)
                  (shard owner "forwarded");
                (* The forced failover: take the owner down, re-ask. *)
                drain owner;
                (match
                   Client.request ~endpoint:(Router.endpoint t)
                     (List.hd matrix)
                 with
                 | Ok resp ->
                   Alcotest.check response "post-failover bytes"
                     (List.hd expected) resp
                 | Error m -> Alcotest.failf "post-failover transport: %s" m);
                Alcotest.(check bool) "owner charged a failover" true
                  (shard owner "failovers" >= 1);
                Alcotest.(check int) "survivor served the retry" 1
                  (shard (1 - owner) "forwarded");
                Alcotest.(check int) "every client frame accounted"
                  (delta "router.requests.total")
                  (delta "router.requests.forwarded"
                  + delta "router.requests.unavailable"
                  + delta "router.requests.malformed");
                Alcotest.(check int) "forwarded = per-shard sum"
                  (delta "router.requests.forwarded")
                  (shard 0 "forwarded" + shard 1 "forwarded"))))
  ]

(* ---- The shared-dictionary service path ----------------------------------- *)

module Dict = Calibro_dict.Dict

(* A dictionary every demo body lands in: mine the demo build against
   itself, so each outlined body clears the >= 2 apps bar. *)
let demo_dict () =
  let b =
    Pipeline.build ~cache:None
      ~config:(Config.cto_ltbo_pl ~k:8 ())
      (Lazy.force demo_app).Appgen.app
  in
  Dict.of_oats [ b.Pipeline.b_oat; b.Pipeline.b_oat ]

let dict_service_tests =
  [ Alcotest.test_case "hello reports the served dictionary digest" `Quick
      (fun () ->
        let d = demo_dict () in
        let serving = Atomic.make (Some (Dict.linker_dict d)) in
        with_server ~dict:(fun () -> Atomic.get serving) @@ fun t ->
        (match Client.hello ~endpoint:(Server.endpoint t) with
         | Ok got ->
           Alcotest.(check (option string)) "digest" (Some (Dict.digest d)) got
         | Error m -> Alcotest.fail m);
        (* Rotation to "no dictionary" is visible on the very next hello. *)
        Atomic.set serving None;
        match Client.hello ~endpoint:(Server.endpoint t) with
        | Ok got -> Alcotest.(check (option string)) "rotated away" None got
        | Error m -> Alcotest.fail m);
    Alcotest.test_case
      "a dict-relative build is served byte-identical and bound" `Quick
      (fun () ->
        let d = demo_dict () in
        let ld = Dict.linker_dict d in
        with_server ~dict:(fun () -> Some ld) @@ fun t ->
        let rq =
          demo_request ~dict:(Dict.digest d)
            ~config:(Config.cto_ltbo_pl ~k:8 ())
            ()
        in
        let expected = Worker.build_response ~cache:None ~dict:ld rq in
        (match expected with
         | Protocol.Built { oat; _ } -> (
           (* The reference build really did bind into the dictionary. *)
           match Calibro_oat.Oat_file.of_bytes (Bytes.of_string oat) with
           | Ok o ->
             Alcotest.(check (option string)) "digest recorded"
               (Some (Dict.digest d))
               o.Calibro_oat.Oat_file.dict_digest
           | Error e -> Alcotest.fail e)
         | _ -> Alcotest.fail "reference dict build did not build");
        match Client.request ~endpoint:(Server.endpoint t) rq with
        | Error m -> Alcotest.fail m
        | Ok served -> Alcotest.check response "dict-relative build" expected
                         served);
    Alcotest.test_case "a stale dictionary digest is a typed mismatch" `Quick
      (fun () ->
        let d = demo_dict () in
        let ld = Dict.linker_dict d in
        with_server ~dict:(fun () -> Some ld) @@ fun t ->
        (* Asking for a dictionary the daemon does not serve. *)
        (match
           Client.request ~endpoint:(Server.endpoint t)
             (demo_request ~dict:"0000deadbeef0000" ())
         with
         | Ok
             (Protocol.Rejected
                (Protocol.Dict_mismatch { dm_want; dm_have })) ->
           Alcotest.(check (option string)) "want echoes the request"
             (Some "0000deadbeef0000") dm_want;
           Alcotest.(check (option string)) "have names the served dict"
             (Some (Dict.digest d)) dm_have
         | Ok r ->
           Alcotest.failf "expected Dict_mismatch, got %s"
             (match r with
              | Protocol.Built _ -> "Built"
              | Protocol.Rejected rej -> Protocol.rejection_to_string rej
              | Protocol.Dict_info _ -> "Dict_info"
             | Protocol.Report_ack _ -> "Report_ack")
         | Error m -> Alcotest.fail m);
        (* A self-contained request still builds against the same daemon. *)
        assert_still_serving t);
    Alcotest.test_case "rotation mid-run: old digest refused, new one served"
      `Quick (fun () ->
        let d = demo_dict () in
        let ld = Dict.linker_dict d in
        let rotated = { ld with Calibro_oat.Linker.dct_digest = "rotated" } in
        let serving = Atomic.make (Some ld) in
        with_server ~dict:(fun () -> Atomic.get serving) @@ fun t ->
        let rq = demo_request ~dict:(Dict.digest d) () in
        (match Client.request ~endpoint:(Server.endpoint t) rq with
         | Ok (Protocol.Built _) -> ()
         | Ok r ->
           Alcotest.failf "pre-rotation build refused: %s"
             (match r with
              | Protocol.Rejected rej -> Protocol.rejection_to_string rej
              | _ -> "?")
         | Error m -> Alcotest.fail m);
        (* Rotate: the same request is now stale — typed mismatch naming
           both digests, so the client knows to re-handshake. *)
        Atomic.set serving (Some rotated);
        (match Client.request ~endpoint:(Server.endpoint t) rq with
         | Ok
             (Protocol.Rejected
                (Protocol.Dict_mismatch { dm_want; dm_have })) ->
           Alcotest.(check (option string)) "stale want" (Some (Dict.digest d))
             dm_want;
           Alcotest.(check (option string)) "rotated have" (Some "rotated")
             dm_have
         | Ok _ -> Alcotest.fail "stale digest was not refused"
         | Error m -> Alcotest.fail m);
        match Client.hello ~endpoint:(Server.endpoint t) with
        | Ok got ->
          Alcotest.(check (option string)) "hello sees the rotation"
            (Some "rotated") got
        | Error m -> Alcotest.fail m) ]

(* ---- Graceful drain ------------------------------------------------------- *)

let drain_tests =
  [ Alcotest.test_case "a build sent mid-drain is answered Draining" `Quick
      (fun () ->
        (* One worker busy with a slow build (the global-tree LTBO of the
           largest app) keeps the drain open. A client that connects
           meanwhile must get the typed refusal, not a vanished socket. *)
        let slow =
          request ~config:Config.cto_ltbo
            (Calibro_dex.Dex_text.to_string
               (Appgen.generate Apps.kuaishou).Appgen.app)
        in
        let delta = deltas () in
        with_server ~workers:1 (fun t ->
            let endpoint = Server.endpoint t in
            let first = Atomic.make (Error "not run") in
            let client =
              Thread.create
                (fun () -> Atomic.set first (Client.request ~endpoint slow))
                ()
            in
            check_eventually "slow build admitted" 1 (fun () ->
                delta "server.requests.accepted");
            let drainer =
              Thread.create
                (fun () ->
                  Server.request_drain t;
                  Server.drain t)
                ()
            in
            Thread.delay 0.05;
            let late = Client.request ~endpoint (demo_request ()) in
            Thread.join drainer;
            Thread.join client;
            (match late with
             | Ok (Protocol.Rejected Protocol.Draining) -> ()
             | Ok r ->
               Alcotest.failf "late build got %s"
                 (Format.asprintf "%a" (Alcotest.pp response) r)
             | Error m -> Alcotest.failf "late build got no answer: %s" m);
            match Atomic.get first with
            | Ok (Protocol.Built _) -> ()
            | Ok r ->
              Alcotest.failf "admitted build got %s"
                (Format.asprintf "%a" (Alcotest.pp response) r)
            | Error m -> Alcotest.failf "admitted build lost: %s" m));
    Alcotest.test_case "SIGTERM drains: in-flight finish, then exit" `Quick
      (fun () ->
        let cache = Calibro_cache.Cache.create () in
        let socket = fresh_socket () in
        let endpoint = Transport.Unix_socket { path = socket } in
        let t =
          Server.create
            { Server.endpoint;
              workers = 2;
              queue_capacity = 16;
              cache = Some cache;
              recv_timeout_s = 10.0;
              default_deadline_ms = None;
              dict = (fun () -> None);
              pgo = None;
              shelve = None }
        in
        Server.install_sigterm t;
        Fun.protect
          ~finally:(fun () ->
            Sys.set_signal Sys.sigterm Sys.Signal_default;
            Sys.set_signal Sys.sigint Sys.Signal_default)
          (fun () ->
            (* A client already mid-build when the signal lands. *)
            let result = Atomic.make (Error "not run") in
            let client =
              Thread.create
                (fun () ->
                  Atomic.set result
                    (Client.request ~endpoint (demo_request ())))
                ()
            in
            Thread.delay 0.05;
            Unix.kill (Unix.getpid ()) Sys.sigterm;
            (* join returns only after the drain has fully completed. *)
            Server.join t;
            Thread.join client;
            (match Atomic.get result with
             | Ok (Protocol.Built _) -> ()
             | Ok (Protocol.Rejected Protocol.Draining) ->
               (* The request raced the signal and was refused — typed,
                  not dropped. *)
               ()
             | Ok (Protocol.Rejected r) ->
               Alcotest.failf "in-flight request got %s"
                 (Protocol.rejection_to_string r)
             | Ok (Protocol.Dict_info _ | Protocol.Report_ack _) ->
               Alcotest.fail "in-flight request got a non-build response"
             | Error m -> Alcotest.failf "in-flight request lost: %s" m);
            Alcotest.(check bool) "socket removed" false
              (Sys.file_exists socket);
            (* A late client finds nobody listening — never a hang. *)
            (match Client.request ~endpoint (demo_request ()) with
             | Error _ -> ()
             | Ok _ -> Alcotest.fail "request served after drain");
            Alcotest.(check bool) "drain recorded" true (Server.draining t)));
    Alcotest.test_case "rolling drain: shards leave one by one, service stays"
      `Quick (fun () ->
        (* The fleet upgrade path: three well-behaved fixture shards
           behind the router; drain them one at a time (stop = the
           fixture's SIGTERM) and keep asking. Every request must be
           answered by some live shard until the last one is gone — then,
           and only then, typed Unavailable. *)
        let fixtures =
          Array.init 3 (fun i ->
              Fixture.start
                (Fixture.Serve (fun _ -> canned (Printf.sprintf "shard%d" i))))
        in
        Fun.protect
          ~finally:(fun () -> Array.iter Fixture.stop fixtures)
          (fun () ->
            with_router
              ~shards:(Array.to_list (Array.map Fixture.endpoint fixtures))
              (fun t _sleeps ->
                let delta = deltas () in
                let payload = payload_routed_to ~replicas:32 ~shards:3 0 in
                let ask () = raw_request (Router.endpoint t) payload in
                let expect_served step =
                  match ask () with
                  | Ok (Protocol.Rejected (Protocol.Internal _)) -> ()
                  | answer ->
                    Alcotest.failf "%s: %s" step
                      (match answer with
                       | Ok (Protocol.Rejected r) ->
                         Protocol.rejection_to_string r
                       | Ok (Protocol.Built _) -> "Built"
                       | Ok (Protocol.Dict_info _) -> "Dict_info"
                       | Ok (Protocol.Report_ack _) -> "Report_ack"
                       | Error e -> e)
                in
                expect_served "all three up";
                Fixture.stop fixtures.(0);
                expect_served "two up";
                Fixture.stop fixtures.(1);
                expect_served "one up";
                Fixture.stop fixtures.(2);
                (match ask () with
                 | Ok (Protocol.Rejected Protocol.Unavailable) -> ()
                 | _ -> Alcotest.fail "all drained: expected Unavailable");
                Alcotest.(check int) "three served, one unavailable"
                  3 (delta "router.requests.forwarded");
                Alcotest.(check int) "unavailable counted once" 1
                  (delta "router.requests.unavailable")))) ]

(* ---- The PGO feedback loop over the wire ---------------------------------- *)

module Pgo = Calibro_pgo.Pgo
module Profile = Calibro_profile.Profile

(* The drift workload: one seeded app, two usage regimes over the same
   script — the late half of the steps hot, then the early half. The
   binary split displaces most of the execution mass, which is what the
   mass-weighted drift score measures (a linear ramp leaves the heaviest
   method dominating both regimes and never clears the threshold). *)
let drift_fixture =
  lazy
    (let generated = Appgen.generate Apps.demo in
     let apk, _ = Mutate.mutate ~seed:1 generated.Appgen.app in
     let script = generated.Appgen.app_script in
     let half = List.length script / 2 in
     let weighted w =
       List.mapi
         (fun i (st : Appgen.script_step) ->
           { st with Appgen.sc_repeat = w i })
         script
     in
     let s_old = weighted (fun i -> if i >= half then 16 else 1)
     and s_new = weighted (fun i -> if i < half then 16 else 1) in
     let b = Pipeline.build ~cache:None ~config:Config.baseline apk in
     let prof script =
       Profile.to_string
         (Profile.of_interp (Appgen.run_script b.Pipeline.b_oat script))
     in
     (Calibro_dex.Dex_text.to_string apk, prof s_old, prof s_new))

let oat_of name = function
  | Ok (Protocol.Built { oat; _ }) -> oat
  | Ok (Protocol.Rejected r) ->
    Alcotest.failf "%s: rejected %s" name (Protocol.rejection_to_string r)
  | Ok _ -> Alcotest.failf "%s: non-build response" name
  | Error m -> Alcotest.failf "%s: transport: %s" name m

let pgo_config = Config.cto_ltbo_pl ~k:2 ()

let pgo_tests =
  [ Alcotest.test_case "report frames round-trip and reject damage" `Quick
      (fun () ->
        let rp =
          { Protocol.pr_app = String.make 32 'a';
            pr_profile = "com.a.B run 500\ncom.c.D go 7\n" }
        in
        let full = Protocol.encode_report rp in
        (match Protocol.decode_request full with
         | Ok (Protocol.Report rp') ->
           Alcotest.(check bool) "round-trips" true (rp = rp')
         | Ok _ -> Alcotest.fail "report decoded as something else"
         | Error e -> Alcotest.failf "report refused: %s" e);
        (* empty profile text is a codec-level non-issue (the daemon
           answers it, typed) *)
        (match
           Protocol.decode_request
             (Protocol.encode_report
                { Protocol.pr_app = ""; pr_profile = "" })
         with
         | Ok (Protocol.Report _) -> ()
         | _ -> Alcotest.fail "empty report refused by the codec");
        for len = 0 to String.length full - 1 do
          match Protocol.decode_request (String.sub full 0 len) with
          | Error m ->
            Alcotest.(check bool)
              (Printf.sprintf "truncation to %d names the damage" len)
              true (String.length m > 0)
          | Ok _ ->
            Alcotest.failf "report truncated to %d bytes decoded" len
        done;
        (match Protocol.decode_request (full ^ "x") with
         | Error m ->
           Alcotest.(check bool) "trailing named" true
             (Astring.String.is_infix ~affix:"trailing" m)
         | Ok _ -> Alcotest.fail "trailing garbage accepted");
        check_response_roundtrip "report_ack"
          (Protocol.Report_ack { ra_drift = 0.4375; ra_relink = true });
        check_response_roundtrip "report_ack zero"
          (Protocol.Report_ack { ra_drift = 0.0; ra_relink = false });
        check_response_roundtrip "unknown_app"
          (Protocol.Rejected (Protocol.Unknown_app (String.make 32 'f'))));
    Alcotest.test_case "bad reports get typed answers, never a relink" `Quick
      (fun () ->
        (* Garbage samples, unknown digests and reports to a daemon
           without --pgo must all be refused typed — with the daemon
           still serving and nothing scheduled. *)
        let pgo = Pgo.Manager.create () in
        let delta = deltas () in
        with_server ~pgo (fun t ->
            let ep = Server.endpoint t in
            let dexsim =
              Calibro_dex.Dex_text.to_string (Lazy.force demo_app).Appgen.app
            in
            ignore
              (oat_of "prime build"
                 (Client.request ~endpoint:ep (request dexsim)));
            let digest = Chash.string dexsim in
            (match
               Client.report ~endpoint:ep
                 { Protocol.pr_app = digest; pr_profile = "!!! garbage" }
             with
             | Ok _ -> Alcotest.fail "garbage profile acked"
             | Error m ->
               Alcotest.(check bool) "typed parse refusal" true
                 (Astring.String.is_infix ~affix:"profile" m));
            (match
               Client.report ~endpoint:ep
                 { Protocol.pr_app = "never-built-digest";
                   pr_profile = "com.a.B run 5\n" }
             with
             | Ok _ -> Alcotest.fail "unknown app acked"
             | Error m ->
               Alcotest.(check bool) "typed unknown-app refusal" true
                 (Astring.String.is_infix ~affix:"unknown app" m));
            (* raw frame abuse on the report path: truncated frame, then
               garbage payload — one connection each, daemon unharmed *)
            let fd = raw_connect t in
            write_all fd
              (Fault.Server.first_half
                 (Protocol.to_frame
                    (Protocol.encode_report
                       { Protocol.pr_app = digest; pr_profile = "x y 1\n" })));
            Unix.close fd;
            (match raw_request ep "\x03garbage-after-tag" with
             | Ok (Protocol.Rejected (Protocol.Malformed _)) -> ()
             | _ -> Alcotest.fail "garbage report payload not Malformed");
            assert_still_serving t;
            Alcotest.(check int) "nothing scheduled" 0
              (delta "pgo.Demo.relinks");
            Alcotest.(check int) "no good report landed" 0
              (delta "pgo.Demo.reports"));
        (* and the same frame against a daemon without --pgo *)
        with_server (fun t ->
            match
              Client.report ~endpoint:(Server.endpoint t)
                { Protocol.pr_app = "any"; pr_profile = "com.a.B run 5\n" }
            with
            | Ok _ -> Alcotest.fail "pgo-less daemon acked a report"
            | Error m ->
              Alcotest.(check bool) "typed refusal" true
                (Astring.String.is_infix ~affix:"unknown app" m)));
    Alcotest.test_case
      "convergence soak: drift relinks once, served bytes flip once" `Slow
      (fun () ->
        let dexsim, prof_old, prof_new = Lazy.force drift_fixture in
        let digest = Chash.string dexsim in
        let rq = request ~profile:prof_old ~config:pgo_config dexsim in
        let expected_old =
          oat_of "in-process old"
            (Ok (Worker.build_response ~cache:None rq))
        and expected_new =
          oat_of "in-process new"
            (Ok
               (Worker.build_response ~cache:None
                  (request ~profile:prof_new ~config:pgo_config dexsim)))
        in
        Alcotest.(check bool) "the regimes build different bytes" false
          (String.equal expected_old expected_new);
        let pgo =
          Pgo.Manager.create
            ~config:{ Pgo.default_config with Pgo.hysteresis = 3 } ()
        in
        let delta = deltas () in
        with_server ~workers:3 ~pgo (fun t ->
            let ep = Server.endpoint t in
            let build () = oat_of "build" (Client.request ~endpoint:ep rq) in
            let report p =
              match
                Client.report ~endpoint:ep
                  { Protocol.pr_app = digest; pr_profile = p }
              with
              | Ok a -> a
              | Error m -> Alcotest.failf "report: %s" m
            in
            (* steady state: the old regime never schedules *)
            Alcotest.(check string) "first serve = old bytes" expected_old
              (build ());
            for i = 1 to 4 do
              let drift, relink = report prof_old in
              if relink then Alcotest.failf "steady report %d relinked" i;
              if drift > 0.3 then
                Alcotest.failf "steady report %d drifted %.3f" i drift
            done;
            Alcotest.(check string) "steady serve = old bytes" expected_old
              (build ());
            (* the regime flips: reports must relink exactly once, within
               the hysteresis plus the accumulator's decay lag *)
            let acks = ref 0 and sent = ref 0 in
            while !acks = 0 && !sent < 12 do
              incr sent;
              let _, relink = report prof_new in
              if relink then incr acks
            done;
            Alcotest.(check int) "exactly one relink acked" 1 !acks;
            Alcotest.(check bool)
              (Printf.sprintf "ack within hysteresis + lag (%d reports)" !sent)
              true (!sent <= 8);
            (* the relink runs through the worker pool; poll until the
               served bytes flip, then they must never flip back *)
            let rec await n =
              if n = 0 then Alcotest.fail "relink never landed"
              else if String.equal (build ()) expected_new then ()
              else begin
                Thread.delay 0.05;
                await (n - 1)
              end
            in
            await 100;
            for _ = 1 to 3 do
              Alcotest.(check string) "refreshed serve = new bytes"
                expected_new (build ())
            done;
            (* post-drift reports measure against the adopted regime:
               quiet, and never a second relink *)
            for i = 1 to 4 do
              let drift, relink = report prof_new in
              if relink then Alcotest.failf "post-drift report %d relinked" i;
              if drift > 0.3 then
                Alcotest.failf "post-drift report %d drifted %.3f" i drift
            done;
            let reports = delta "pgo.Demo.reports"
            and drift = delta "pgo.Demo.drift_detected" in
            Alcotest.(check int) "every report counted" (4 + !sent + 4)
              reports;
            Alcotest.(check int) "one relink" 1 (delta "pgo.Demo.relinks");
            Alcotest.(check bool) "drift detected, bounded by reports" true
              (drift >= 3 && drift <= reports);
            Alcotest.(check bool) "the relink hit the shared cache" true
              (delta "pgo.Demo.relink_cache_hits" > 0));
        Alcotest.(check bool) "refreshed serves counted" true
          (delta "server.jobs.refreshed" > 0));
    Alcotest.test_case "drain mid-relink: reports answered, nothing stuck"
      `Quick (fun () ->
        let dexsim, prof_old, prof_new = Lazy.force drift_fixture in
        let digest = Chash.string dexsim in
        let rq = request ~profile:prof_old ~config:pgo_config dexsim in
        let pgo =
          Pgo.Manager.create
            ~config:{ Pgo.default_config with Pgo.hysteresis = 1 } ()
        in
        with_server ~pgo (fun t ->
            let ep = Server.endpoint t in
            ignore (oat_of "prime" (Client.request ~endpoint:ep rq));
            (* hysteresis 1: the first drifted report schedules *)
            (match
               Client.report ~endpoint:ep
                 { Protocol.pr_app = digest; pr_profile = prof_new }
             with
             | Ok (_, relink) ->
               Alcotest.(check bool) "drifted report schedules" true relink
             | Error m -> Alcotest.failf "report: %s" m);
            (* the drain begins while that relink is queued or running —
               reports must still be answered, but never schedule *)
            Server.request_drain t;
            (match
               Client.report ~endpoint:ep
                 { Protocol.pr_app = digest; pr_profile = prof_new }
             with
             | Ok (_, relink) ->
               Alcotest.(check bool) "drain merges, never schedules" false
                 relink
             | Error m -> Alcotest.failf "report while draining: %s" m);
            (* a Build during the drain is refused typed, like always *)
            match Client.request ~endpoint:ep rq with
            | Ok (Protocol.Rejected Protocol.Draining) -> ()
            | Ok (Protocol.Built _) ->
              (* raced ahead of the flag: also legal *)
              ()
            | Ok r ->
              Alcotest.failf "drain answered %s"
                (match r with
                 | Protocol.Rejected rej -> Protocol.rejection_to_string rej
                 | _ -> "a non-build response")
            | Error m -> Alcotest.failf "drain transport: %s" m)
        (* with_server's finally completes the drain: reaching here at
           all is the no-hang assertion *));
    Alcotest.test_case "a traced relink exports valid UTF-8 JSON" `Quick
      (fun () ->
        (* The server.relink span names the app in its args; the raw
           16-byte digest there made every --trace of a re-linking run
           invalid UTF-8. *)
        let module Json = Calibro_obs.Json in
        let dexsim, prof_old, prof_new = Lazy.force drift_fixture in
        let digest = Chash.string dexsim in
        let rq = request ~profile:prof_old ~config:pgo_config dexsim in
        let pgo =
          Pgo.Manager.create
            ~config:{ Pgo.default_config with Pgo.hysteresis = 1 } ()
        in
        (* no Obs.reset: the counters the suite accumulated are the
           test-cached CI snapshot; count only this test's spans *)
        let t0 = Calibro_obs.Clock.now_ns () in
        with_server ~pgo (fun t ->
            let ep = Server.endpoint t in
            let old = oat_of "prime" (Client.request ~endpoint:ep rq) in
            (match
               Client.report ~endpoint:ep
                 { Protocol.pr_app = digest; pr_profile = prof_new }
             with
             | Ok (_, relink) ->
               Alcotest.(check bool) "drifted report schedules" true relink
             | Error m -> Alcotest.failf "report: %s" m);
            let rec await n =
              if n = 0 then Alcotest.fail "relink never landed"
              else if oat_of "build" (Client.request ~endpoint:ep rq) = old
              then begin
                Thread.delay 0.05;
                await (n - 1)
              end
            in
            await 100);
        (* snapshot after with_server joined the worker domains *)
        let trace = Json.to_string (Obs.trace_json ()) in
        Alcotest.(check bool) "trace is valid UTF-8" true
          (String.is_valid_utf_8 trace);
        match Json.parse trace with
        | Error e -> Alcotest.failf "exported trace does not parse: %s" e
        | Ok _ ->
          let apps =
            List.filter_map
              (fun (e : Obs.span_event) ->
                if e.Obs.ev_name = "server.relink" && e.Obs.ev_start_ns >= t0
                then
                  match List.assoc_opt "app" e.Obs.ev_args with
                  | Some (Json.Str a) -> Some a
                  | _ -> None
                else None)
              (Obs.events ())
          in
          Alcotest.(check (list string)) "one relink span, hex app digest"
            [ Chash.to_hex digest ] apps) ]


(* ---- Live counters --------------------------------------------------------

   Counters are incremented at the event and read while the daemon runs;
   a drain adds nothing, so the same deltas hold before and after it. *)

let check_deltas ~live msg delta expected =
  List.iter
    (fun (name, want) ->
      let label = Printf.sprintf "%s: %s" msg name in
      if live then check_eventually label want (fun () -> delta name)
      else Alcotest.(check int) label want (delta name))
    expected

(* Run [f i] on [n] threads; the failures they report, in order. *)
let on_threads n f =
  let errors = Array.make n [] in
  List.init n (fun i ->
      Thread.create
        (fun () -> errors.(i) <- (try f i with e -> [ Printexc.to_string e ]))
        ())
  |> List.iter Thread.join;
  List.concat (Array.to_list errors)

let live_counter_tests =
  [ Alcotest.test_case "server counters reconcile live; drain adds nothing"
      `Quick (fun () ->
        let delta = deltas () in
        let clients = 4 in
        with_server ~queue_capacity:64 (fun t ->
            let ep = Server.endpoint t in
            let errors =
              on_threads clients (fun _ ->
                  let build () =
                    match
                      Client.request ~endpoint:ep
                        (demo_request ~config:Config.cto ())
                    with
                    | Ok (Protocol.Built _) -> []
                    | _ -> [ "build not served" ]
                  in
                  let b1 = build () in
                  let hello =
                    match Client.hello ~endpoint:ep with
                    | Ok _ -> []
                    | Error m -> [ "hello: " ^ m ]
                  in
                  let garbage =
                    match raw_request ep "\x03garbage-after-tag" with
                    | Ok (Protocol.Rejected (Protocol.Malformed _)) -> []
                    | _ -> [ "garbage not answered Malformed" ]
                  in
                  let report =
                    match
                      Client.report ~endpoint:ep
                        { Protocol.pr_app = "any";
                          pr_profile = "com.a.B run 5\n" }
                    with
                    | Error _ -> []
                    | Ok _ -> [ "a PGO-less daemon acked a report" ]
                  in
                  b1 @ hello @ garbage @ report @ build ())
            in
            Alcotest.(check (list string)) "every client answered" [] errors;
            let expected =
              [ ("server.requests.accepted", 2 * clients);
                ("server.requests.overloaded", 0);
                ("server.requests.malformed", clients);
                ("server.requests.stalled", 0);
                ("server.requests.refused_draining", 0);
                ("server.requests.hello", clients);
                ("server.requests.reports", clients);
                ("server.jobs.ok", 2 * clients) ]
            in
            check_deltas ~live:true "before drain" delta expected;
            Server.request_drain t;
            Server.drain t;
            check_deltas ~live:false "after drain" delta expected));
    Alcotest.test_case
      "router counters reconcile live across a failover; drain adds nothing"
      `Quick (fun () ->
        let mk_server () =
          Server.create
            { (Server.default_config
                 ~endpoint:(Transport.Tcp { host = "127.0.0.1"; port = 0 }))
              with
              Server.cache = Some (Calibro_cache.Cache.create ()) }
        in
        let servers = [| mk_server (); mk_server () |] in
        let drain s =
          Server.request_drain s;
          Server.drain s
        in
        Fun.protect
          ~finally:(fun () -> Array.iter drain servers)
          (fun () ->
            with_router ~replicas:128
              ~shards:(Array.to_list (Array.map Server.endpoint servers))
              (fun t _sleeps ->
                let delta = deltas () in
                let ep = Router.endpoint t in
                let rq = demo_request ~config:Config.cto () in
                let owner =
                  Router.Ring.lookup
                    (Router.Ring.make ~shards:2 ~replicas:128)
                    (Chash.string rq.Protocol.rq_dexsim)
                in
                let served () =
                  match Client.request ~endpoint:ep rq with
                  | Ok (Protocol.Built _) -> []
                  | _ -> [ "build not served through the router" ]
                in
                let before = 4 and after = 3 in
                Alcotest.(check (list string)) "concurrent builds served" []
                  (on_threads before (fun _ -> served ()));
                (* the forced failover: the owner leaves, later builds
                   move to the survivor (only the first one retries) *)
                drain servers.(owner);
                Alcotest.(check (list string)) "post-failover builds served"
                  [] (List.concat (List.init after (fun _ -> served ())));
                let fd = Transport.connect ep in
                write_all fd "GET / HTTP/1.1\r\n\r\n";
                (try ignore (Protocol.read_frame fd)
                 with Protocol.Frame_error _ -> ());
                Unix.close fd;
                let shard i what = Printf.sprintf "router.shard%d.%s" i what in
                let expected =
                  [ ("router.requests.total", before + after + 1);
                    ("router.requests.forwarded", before + after);
                    ("router.requests.unavailable", 0);
                    ("router.requests.malformed", 1);
                    ("router.conn_errors", 0);
                    (shard owner "forwarded", before);
                    (shard owner "retries", 1);
                    (shard owner "failovers", 1);
                    (shard (1 - owner) "forwarded", after);
                    (shard (1 - owner) "retries", 0);
                    (shard (1 - owner) "failovers", 0) ]
                in
                check_deltas ~live:true "before drain" delta expected;
                Router.request_drain t;
                Router.drain t;
                check_deltas ~live:false "after drain" delta expected)));
    Alcotest.test_case "a relink reports exactly its own cache hits" `Quick
      (fun () ->
        (* The relink runs while client builds of the old request hit the
           same cache; it must report the hits of the same rebuild done
           in-process on a cache holding exactly the old-profile build —
           none of the concurrent builds' hits. *)
        let dexsim, prof_old, prof_new = Lazy.force drift_fixture in
        let digest = Chash.string dexsim in
        let rq_old = request ~profile:prof_old ~config:pgo_config dexsim
        and rq_new = request ~profile:prof_new ~config:pgo_config dexsim in
        let expected_hits =
          let cache = Some (Calibro_cache.Cache.create ()) in
          ignore (Worker.build ~cache rq_old);
          match Worker.build ~cache rq_new with
          | Ok (b, _) -> b.Pipeline.b_cache_hits
          | Error r ->
            Alcotest.failf "in-process rebuild: %s"
              (Protocol.rejection_to_string r)
        in
        let expected_new =
          oat_of "in-process new" (Ok (Worker.build_response ~cache:None rq_new))
        in
        let pgo =
          Pgo.Manager.create
            ~config:{ Pgo.default_config with Pgo.hysteresis = 3 } ()
        in
        let delta = deltas () in
        with_server ~workers:3 ~pgo (fun t ->
            let ep = Server.endpoint t in
            let build () = oat_of "build" (Client.request ~endpoint:ep rq_old) in
            ignore (build ());
            let landed () = delta "pgo.Demo.relinks" >= 1 in
            let busy =
              List.init 2 (fun _ ->
                  Thread.create
                    (fun () ->
                      while not (landed ()) do
                        ignore (Client.request ~endpoint:ep rq_old)
                      done)
                    ())
            in
            let rec drift n =
              if n = 0 then Alcotest.fail "drift never scheduled a relink"
              else
                match
                  Client.report ~endpoint:ep
                    { Protocol.pr_app = digest; pr_profile = prof_new }
                with
                | Ok (_, true) -> ()
                | Ok (_, false) -> drift (n - 1)
                | Error m -> Alcotest.failf "report: %s" m
            in
            drift 12;
            let rec await n =
              if landed () then ()
              else if n = 0 then Alcotest.fail "relink never landed"
              else begin
                Thread.delay 0.01;
                await (n - 1)
              end
            in
            await 1000;
            List.iter Thread.join busy;
            Alcotest.(check string) "the relink is that rebuild" expected_new
              (build ());
            Alcotest.(check bool) "client builds ran beside it" true
              (delta "server.jobs.ok" > 2);
            Alcotest.(check int) "relink hits = the in-process rebuild's"
              expected_hits
              (delta "pgo.Demo.relink_cache_hits"))) ]

let suite =
  codec_tests @ transport_tests @ ring_tests @ queue_tests @ serve_tests
  @ writer_tests @ fault_tests @ router_tests @ e2e_tests
  @ dict_service_tests @ drain_tests @ pgo_tests @ live_counter_tests
