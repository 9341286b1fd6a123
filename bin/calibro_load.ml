(* calibro_load — load-generating client for calibrod.

   Drives N concurrent clients through a mixed cold/warm workload: each
   request compiles a release mutant (Calibro_workload.Mutate delta) of a
   base app, with mutation seeds drawn from a small cycling pool so
   different clients ask for overlapping releases and the daemon's shared
   cache gets warm hits. Reports throughput and p50/p95 latency.

   --verify recomputes every distinct request in-process through the same
   pipeline calibroc uses and fails (exit 1) unless the served OAT images
   are byte-identical. --allow-errors tolerates refused or dropped
   requests — the mode the CI drain test uses while SIGTERMing the daemon
   mid-load. *)

open Cmdliner
open Calibro_core
open Calibro_workload
module Protocol = Calibro_server.Protocol
module Client = Calibro_server.Client
module Worker = Calibro_server.Worker
module Transport = Calibro_server.Transport
module Clock = Calibro_obs.Clock

type built = { latency_s : float; oat : string; req_ix : int }

type outcome =
  | O_built of built
  | O_rejected of Protocol.rejection
  | O_transport of string

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let run endpoint clients requests app_name seeds config_name deadline_ms
    verify allow_errors dict_path shelve train =
  let profile =
    if String.lowercase_ascii app_name = "demo" then Some Apps.demo
    else Apps.by_name app_name
  in
  let generated =
    match profile with
    | None -> Printf.eprintf "unknown app %s\n" app_name; exit 2
    | Some p -> Appgen.generate p
  in
  let base = generated.Appgen.app in
  let config =
    match Config.of_string config_name with
    | Ok c -> c
    | Error e -> Printf.eprintf "%s\n" e; exit 2
  in
  let dict =
    match dict_path with
    | None -> None
    | Some path -> (
      match Calibro_dict.Dict.load path with
      | Ok d -> Some d
      | Error e ->
        Printf.eprintf "calibro_load: --dict %s: %s\n" path e;
        exit 2)
  in
  let seeds = max 1 seeds in
  let shelve_profile =
    (* Shelving draws its warm set from a profile; produce one by
       replaying the base app's own interaction script through a
       baseline build, the way the drift replay does. *)
    match shelve with
    | None -> None
    | Some _ ->
      let b = Pipeline.build ~config:Config.baseline base in
      let t = Appgen.run_script b.Pipeline.b_oat generated.Appgen.app_script in
      Some
        (Calibro_profile.Profile.to_string
           (Calibro_profile.Profile.of_interp t))
  in
  let request_of_apk apk =
    { Protocol.rq_config = config;
      rq_dexsim = Calibro_dex.Dex_text.to_string apk;
      rq_profile = shelve_profile;
      rq_deadline_ms = deadline_ms;
      rq_dict = Option.map Calibro_dict.Dict.digest dict;
      rq_shelve = shelve }
  in
  let requests_by_slot, requests =
    match train with
    | None ->
      (* One request per (seed pool slot); the pool cycles so concurrent
         clients hit overlapping releases. *)
      let request_of_ix ix =
        let seed = (ix mod seeds) + 1 in
        let apk, _ops = Mutate.mutate ~seed base in
        request_of_apk apk
      in
      (Array.init (min seeds (clients * requests)) request_of_ix, requests)
    | Some deltas ->
      (* Release-train replay: every client walks the same version
         sequence in order, so the first client to reach version i pays
         the cold build and the rest hit the fleet cache warm — and
         consecutive versions differ by one Mutate delta, the
         incremental-relink shape. Overrides --seeds and --requests. *)
      let reqs =
        Train.fold ~deltas ~seed:1 base ~init:[] ~f:(fun acc v ->
            request_of_apk v.Train.v_apk :: acc)
        |> List.rev |> Array.of_list
      in
      (reqs, Array.length reqs)
  in
  let total = clients * requests in
  let outcomes = Array.make (max 1 total) (O_transport "not run") in
  let t0 = Clock.now_ns () in
  let client_thread c () =
    for r = 0 to requests - 1 do
      let ix = (c * requests) + r in
      let rq = requests_by_slot.(ix mod Array.length requests_by_slot) in
      let t = Clock.now_ns () in
      outcomes.(ix) <-
        (match Client.request ~endpoint rq with
         | Ok (Protocol.Built { oat; _ }) ->
           O_built
             { latency_s = Clock.since_s t;
               oat;
               req_ix = ix mod Array.length requests_by_slot }
         | Ok (Protocol.Rejected rej) -> O_rejected rej
         | Ok (Protocol.Dict_info _ | Protocol.Report_ack _) ->
           O_transport "unexpected reply to a build request"
         | Error m -> O_transport m)
    done
  in
  let threads = List.init clients (fun c -> Thread.create (client_thread c) ()) in
  List.iter Thread.join threads;
  let wall_s = Clock.since_s t0 in
  let built =
    Array.to_list outcomes
    |> List.filter_map (function O_built b -> Some b | _ -> None)
  in
  let count pred = Array.to_list outcomes |> List.filter pred |> List.length in
  let rejected =
    count (function O_rejected _ -> true | _ -> false)
  and transport = count (function O_transport _ -> true | _ -> false) in
  let lats =
    List.map (fun b -> b.latency_s) built |> Array.of_list
  in
  Array.sort compare lats;
  Printf.printf
    "calibro_load: %d requests (%d clients x %d), %d built, %d rejected, %d \
     transport errors in %.2fs\n"
    total clients requests (List.length built) rejected transport wall_s;
  (match train with
   | Some d ->
     Printf.printf
       "  release train: %d versions (%d deltas), replayed in order by each \
        client\n"
       (d + 1) d
   | None -> ());
  if List.length built > 0 then
    Printf.printf
      "  throughput %.2f builds/s  latency p50 %.3fs  p95 %.3fs  max %.3fs\n"
      (float_of_int (List.length built) /. wall_s)
      (percentile lats 0.50) (percentile lats 0.95)
      lats.(Array.length lats - 1);
  Array.iteri
    (fun ix o ->
      match o with
      | O_rejected rej when not allow_errors ->
        Printf.printf "  request %d rejected: %s\n" ix
          (Protocol.rejection_to_string rej)
      | O_transport m when not allow_errors ->
        Printf.printf "  request %d transport error: %s\n" ix m
      | _ -> ())
    outcomes;
  let mismatches =
    if not verify then 0
    else begin
      (* Recompute each distinct request in-process — the same
         Pipeline.build path calibroc's build subcommand runs — and
         demand byte-identical OAT images from the daemon. *)
      let expected =
        Array.map
          (fun rq ->
            match
              Worker.build_response ~cache:None
                ?dict:(Option.map Calibro_dict.Dict.linker_dict dict) rq
            with
            | Protocol.Built { oat; _ } -> oat
            | Protocol.Rejected rej ->
              Printf.eprintf "local build failed: %s\n"
                (Protocol.rejection_to_string rej);
              exit 2
            | Protocol.Dict_info _ | Protocol.Report_ack _ ->
              Printf.eprintf "local build answered a non-build response\n";
              exit 2)
          requests_by_slot
      in
      List.fold_left
        (fun acc (b : _) ->
          if String.equal b.oat expected.(b.req_ix) then acc
          else begin
            Printf.printf "  VERIFY FAIL: request slot %d differs from \
                           in-process build\n"
              b.req_ix;
            acc + 1
          end)
        0 built
    end
  in
  if verify && mismatches = 0 && built <> [] then
    Printf.printf "  verify: %d served OATs byte-identical to in-process \
                   builds\n"
      (List.length built);
  if mismatches > 0 then 1
  else if (not allow_errors) && (rejected > 0 || transport > 0) then 1
  else 0

(* ---- The drift replay (--drift) -----------------------------------------

   A PGO convergence check against a live daemon. One seeded app (a
   Workload.Mutate release of the base), one fixed build request whose
   profile is the *old* usage regime; every client alternates Build and
   Profile_report, and at the midpoint of its run the reported regime
   rotates — the interaction script's repeat weights flip from
   ramp-up (late steps hot) to ramp-down (early steps hot), so the hot
   set's mass moves to a different slice of the app. The daemon must
   detect the drift, schedule exactly one incremental re-link, and flip
   what it serves: each client sees old bytes, then new bytes, never a
   third value and never old again after new. --verify additionally
   demands both byte-values equal in-process builds with the respective
   profiles. *)

module Pgo_profile = Calibro_profile.Profile

let run_drift endpoint clients requests app_name seed config_name deadline_ms
    verify allow_errors dict_path shelve =
  let app_profile =
    if String.lowercase_ascii app_name = "demo" then Some Apps.demo
    else Apps.by_name app_name
  in
  let generated =
    match app_profile with
    | None -> Printf.eprintf "unknown app %s\n" app_name; exit 2
    | Some p -> Appgen.generate p
  in
  let base_apk, _ops =
    Mutate.mutate ~seed:(max 1 seed) generated.Appgen.app
  in
  let script = generated.Appgen.app_script in
  let config =
    match Config.of_string config_name with
    | Ok c -> c
    | Error e -> Printf.eprintf "%s\n" e; exit 2
  in
  let dict =
    match dict_path with
    | None -> None
    | Some path -> (
      match Calibro_dict.Dict.load path with
      | Ok d -> Some d
      | Error e ->
        Printf.eprintf "calibro_load: --dict %s: %s\n" path e;
        exit 2)
  in
  (* The two usage regimes: same script, opposite repeat ramps. *)
  let n_steps = List.length script in
  let weighted w =
    List.mapi
      (fun i (st : Appgen.script_step) ->
        { st with Appgen.sc_repeat = 1 + w i })
      script
  in
  (* A binary split (late-half steps x16 vs early-half x16) displaces
     far more execution mass than a linear ramp: the heaviest method
     keeps dominating a ramp's totals, and the mass-weighted drift score
     then never clears the threshold. *)
  let half = n_steps / 2 in
  let script_old = weighted (fun i -> if i >= half then 15 else 0)
  and script_new = weighted (fun i -> if i < half then 15 else 0) in
  let baseline_build = Pipeline.build ~config:Config.baseline base_apk in
  let profile_of script =
    Pgo_profile.to_string
      (Pgo_profile.of_interp
         (Appgen.run_script baseline_build.Pipeline.b_oat script))
  in
  let profile_old = profile_of script_old
  and profile_new = profile_of script_new in
  let dexsim = Calibro_dex.Dex_text.to_string base_apk in
  let digest = Calibro_chash.Chash.string dexsim in
  let rq =
    { Protocol.rq_config = config;
      rq_dexsim = dexsim;
      rq_profile = Some profile_old;
      rq_deadline_ms = deadline_ms;
      rq_dict = Option.map Calibro_dict.Dict.digest dict;
      rq_shelve = shelve }
  in
  let requests = max 2 requests in
  let rotate_at = requests / 2 in
  let total = clients * requests in
  let served = Array.make total None in
  let relink_acks = Atomic.make 0 in
  let report_errors = Atomic.make 0 in
  let build_errors = Atomic.make 0 in
  let reports_sent = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  let client_thread c () =
    for r = 0 to requests - 1 do
      let ix = (c * requests) + r in
      (match Client.request ~endpoint rq with
       | Ok (Protocol.Built { oat; _ }) -> served.(ix) <- Some oat
       | Ok _ -> Atomic.incr build_errors
       | Error _ -> Atomic.incr build_errors);
      let profile = if r < rotate_at then profile_old else profile_new in
      Atomic.incr reports_sent;
      match
        Client.report ~endpoint
          { Protocol.pr_app = digest; pr_profile = profile }
      with
      | Ok (_drift, relinked) -> if relinked then Atomic.incr relink_acks
      | Error _ -> Atomic.incr report_errors
    done
  in
  let threads =
    List.init clients (fun c -> Thread.create (client_thread c) ())
  in
  List.iter Thread.join threads;
  let wall_s = Clock.since_s t0 in
  (* Classify the served byte-values. *)
  let expected_old, expected_new =
    if verify then begin
      let build rq =
        match
          Worker.build_response ~cache:None
            ?dict:(Option.map Calibro_dict.Dict.linker_dict dict) rq
        with
        | Protocol.Built { oat; _ } -> oat
        | r ->
          Printf.eprintf "local build failed: %s\n"
            (match r with
             | Protocol.Rejected rej -> Protocol.rejection_to_string rej
             | _ -> "non-build response");
          exit 2
      in
      ( build rq,
        build { rq with Protocol.rq_profile = Some profile_new } )
    end
    else begin
      (* Without --verify the oracle builds are skipped: the first byte
         value seen is "old", the first different one is "new". *)
      let first = ref None and second = ref None in
      Array.iter
        (function
          | None -> ()
          | Some oat -> (
            match (!first, !second) with
            | None, _ -> first := Some oat
            | Some f, None when not (String.equal f oat) ->
              second := Some oat
            | _ -> ()))
        served;
      ( Option.value ~default:"" !first,
        Option.value ~default:"" !second )
    end
  in
  let n_old = ref 0 and n_new = ref 0 and n_other = ref 0 in
  let monotone = ref true in
  for c = 0 to clients - 1 do
    let seen_new = ref false in
    for r = 0 to requests - 1 do
      match served.((c * requests) + r) with
      | None -> ()
      | Some oat ->
        if String.equal oat expected_old then begin
          incr n_old;
          if !seen_new then monotone := false
        end
        else if String.equal oat expected_new then begin
          incr n_new;
          seen_new := true
        end
        else incr n_other
    done
  done;
  Printf.printf
    "calibro_load --drift: %d builds (%d clients x %d), %d reports, %d \
     relinks acked in %.2fs\n"
    total clients requests (Atomic.get reports_sent)
    (Atomic.get relink_acks) wall_s;
  Printf.printf
    "  served: %d old-profile, %d new-profile, %d unrecognized; flip %s\n"
    !n_old !n_new !n_other
    (if !monotone then "monotone" else "NOT MONOTONE");
  if verify then
    Printf.printf
      "  verify: served values checked against in-process builds of both \
       profiles%s\n"
      (if !n_other = 0 then "" else " — DIVERGENCE");
  let errors = Atomic.get build_errors + Atomic.get report_errors in
  if errors > 0 then Printf.printf "  %d request errors\n" errors;
  if !n_other > 0 then begin
    Printf.printf "  DRIFT FAIL: a served OAT matches neither profile's \
                   build\n";
    1
  end
  else if not !monotone then begin
    Printf.printf "  DRIFT FAIL: a client saw old bytes after new bytes\n";
    1
  end
  else if Atomic.get relink_acks = 0 then begin
    Printf.printf "  DRIFT FAIL: no report triggered a re-link\n";
    1
  end
  else if !n_new = 0 then begin
    Printf.printf "  DRIFT FAIL: the re-linked OAT was never served\n";
    1
  end
  else if (not allow_errors) && errors > 0 then 1
  else 0

let cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"The daemon's (or router's) Unix-domain socket.")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"The daemon's (or router's) TCP address. Exactly one of \
                 $(b,--socket) or $(b,--tcp) is required.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client threads.")
  in
  let requests =
    Arg.(value & opt int 4 & info [ "requests" ] ~docv:"M"
           ~doc:"Requests per client.")
  in
  let app_arg =
    Arg.(value & opt string "taobao" & info [ "app" ] ~docv:"APP"
           ~doc:"Base app: toutiao taobao fanqie meituan kuaishou wechat \
                 demo.")
  in
  let seeds =
    Arg.(value & opt int 4 & info [ "seeds" ] ~docv:"K"
           ~doc:"Mutation-seed pool size; smaller = more overlap = more \
                 warm cache hits.")
  in
  let config =
    Arg.(value & opt string "pl2" & info [ "config" ] ~docv:"CONFIG"
           ~doc:"Build configuration (baseline, cto, ltbo, plK, roundsN).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Byte-compare every served OAT against an in-process build \
                 of the same request; mismatch exits 1.")
  in
  let allow_errors =
    Arg.(value & flag & info [ "allow-errors" ]
           ~doc:"Tolerate rejected or dropped requests (for driving a \
                 draining daemon).")
  in
  let dict_path =
    Arg.(value & opt (some string) None & info [ "dict" ] ~docv:"PATH"
           ~doc:"Shared-dictionary container: every request asks for a \
                 dictionary-relative build against its digest, and \
                 $(b,--verify) compares against in-process builds linked \
                 against the same dictionary. A daemon serving a \
                 different dictionary answers Dict_mismatch.")
  in
  let shelve =
    Arg.(value & opt (some float) None & info [ "shelve" ] ~docv:"COVERAGE"
           ~doc:"Ask for profile-driven shelving at this coverage \
                 threshold: a profile of the base app's own interaction \
                 script is attached to every build request and the daemon \
                 shelves methods outside the warm set to interpreter \
                 stubs. $(b,--verify) compares against in-process shelved \
                 builds of the same requests.")
  in
  let train =
    Arg.(value & opt (some int) None & info [ "train" ] ~docv:"DELTAS"
           ~doc:"Release-train replay: instead of the cycling seed pool, \
                 build the deterministic $(docv)-delta release train of \
                 the base app (Workload.Train, seed 1) and have every \
                 client walk the versions in order — overlapping clients \
                 exercise the fleet cache, consecutive one-delta versions \
                 exercise incremental re-links. Overrides $(b,--seeds) \
                 and $(b,--requests).")
  in
  let drift =
    Arg.(value & flag & info [ "drift" ]
           ~doc:"PGO convergence replay: every client alternates Build and \
                 Profile_report against one seeded app, the reported usage \
                 regime rotates at the midpoint of each client's run, and \
                 the daemon must detect the drift, re-link incrementally \
                 and flip what it serves — exactly once, monotonically per \
                 client. Exit 1 if no re-link happens, the flip is not \
                 monotone, or (with $(b,--verify)) any served OAT differs \
                 from the in-process builds of both regimes. Uses the \
                 first $(b,--seeds) seed only.")
  in
  Cmd.v
    (Cmd.info "calibro_load"
       ~doc:"Concurrent load generator and verifier for calibrod.")
    Term.(
      const
        (fun socket tcp clients requests app seeds config deadline_ms verify
             allow_errors dict_path shelve train drift ->
          let endpoint =
            match (socket, tcp) with
            | Some path, None -> Transport.Unix_socket { path }
            | None, Some spec -> (
              match Transport.of_string ("tcp:" ^ spec) with
              | Ok ep -> ep
              | Error e ->
                Printf.eprintf "calibro_load: %s\n" e;
                Stdlib.exit 2)
            | _ ->
              Printf.eprintf
                "calibro_load: pass exactly one of --socket or --tcp\n";
              Stdlib.exit 2
          in
          Stdlib.exit
            (if drift then
               run_drift endpoint clients requests app seeds config
                 deadline_ms verify allow_errors dict_path shelve
             else
               run endpoint clients requests app seeds config deadline_ms
                 verify allow_errors dict_path shelve train))
      $ socket $ tcp $ clients $ requests $ app_arg $ seeds $ config
      $ deadline_ms $ verify $ allow_errors $ dict_path $ shelve $ train
      $ drift)

let () = exit (Cmd.eval cmd)
